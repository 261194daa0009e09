#![deny(missing_docs)]

//! Deterministic structured tracing for the serving stack.
//!
//! The serving engine records typed [`TraceEvent`]s — token movements with
//! their reason, quantum boundaries, cost-threshold crossings, cooperative
//! yields, kernel enqueue/launch/complete, overflow charges and client
//! lifecycle — into a [`TraceBuffer`]: a pre-allocated arena (optionally a
//! bounded ring) that allocates nothing in steady state. Every event is
//! stamped with its virtual [`SimTime`] and a monotonic sequence number, so
//! a trace of a deterministic run is **byte-identical** however the
//! surrounding harness is parallelized: the simulation owning the buffer is
//! single-threaded on a virtual clock, and nothing in here consults wall
//! clocks, thread ids or iteration order of unordered containers.
//!
//! Two exporters turn a finished [`Trace`] into artifacts:
//!
//! * [`export::chrome_trace_json`] — Chrome trace-event JSON loadable in
//!   Perfetto / `chrome://tracing`, one track per client plus one per GPU
//!   device;
//! * [`stats::TraceStats`] — a compact counters/histogram snapshot (token
//!   switches, quantum-length distribution, per-client attributed GPU µs,
//!   overflow µs, scheduler-overhead µs) behind the `overhead` report.

use simtime::{SimDuration, SimTime};
use std::fmt;

pub mod export;
pub mod stats;

pub use export::{chrome_trace_json, EventArg, EventWriter, TraceMeta};
pub use stats::TraceStats;

/// How much the engine records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing. The hot path pays one predictable branch per
    /// would-be event.
    #[default]
    Off,
    /// Record the low-frequency scheduling and lifecycle events (token
    /// movements, quantum ends, threshold crossings, yields, overflow
    /// charges, admissions) but not the per-kernel firehose. A sampled
    /// trace of a full-scale experiment stays in the tens of thousands of
    /// events.
    Sampled,
    /// Everything, including one enqueue/launch/complete triple per GPU
    /// kernel. Needed for device-idle overhead attribution.
    Full,
}

/// Tracing configuration carried by the engine config.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Verbosity.
    pub mode: TraceMode,
    /// When set, keep only the most recent `n` events (a flight-recorder
    /// ring); dropped-event count is reported in the finished [`Trace`].
    /// `None` grows the arena unboundedly.
    pub ring_capacity: Option<usize>,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> TraceConfig {
        TraceConfig::default()
    }

    /// Scheduling/lifecycle events only.
    pub fn sampled() -> TraceConfig {
        TraceConfig { mode: TraceMode::Sampled, ring_capacity: None }
    }

    /// Everything including per-kernel events.
    pub fn full() -> TraceConfig {
        TraceConfig { mode: TraceMode::Full, ring_capacity: None }
    }

    /// Bounds the buffer to the most recent `n` events.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_ring(mut self, n: usize) -> TraceConfig {
        assert!(n > 0, "ring capacity must be positive");
        self.ring_capacity = Some(n);
        self
    }

    /// Whether any events are recorded.
    pub fn is_on(&self) -> bool {
        self.mode != TraceMode::Off
    }
}

/// Why the token moved (carried on `Verdict::Moved` and on the
/// grant/revoke trace events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchReason {
    /// A job registered and the policy granted it the token.
    Register,
    /// The holder deregistered and the token passed on.
    Deregister,
    /// The cost-accumulation meter crossed the quantum threshold
    /// `T_j = Q * C_j / D_j` (the paper's mechanism).
    QuantumExpired,
    /// A wall-clock quantum timer fired (the Figure 19 ablation meter).
    WallClockTimer,
    /// The token-hold watchdog revoked a holder whose GPU progress had
    /// stalled past its patience window (faults/recovery layer).
    WatchdogStall,
}

impl SwitchReason {
    /// Stable kebab-case label used in exported JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            SwitchReason::Register => "register",
            SwitchReason::Deregister => "deregister",
            SwitchReason::QuantumExpired => "quantum-expired",
            SwitchReason::WallClockTimer => "wall-clock-timer",
            SwitchReason::WatchdogStall => "watchdog-stall",
        }
    }
}

impl fmt::Display for SwitchReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happened. Ids are raw (`u64` job, `u32` client/device/node) so this
/// crate sits below the serving layer without a dependency cycle.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A client connected and its memory was reserved.
    ClientAdmitted {
        /// The admitted client.
        client: u32,
        /// The device its activations were placed on.
        device: u32,
    },
    /// A client's admission was deferred to the bounded wait queue; the
    /// attribution layer opens an admission-wait phase here.
    AdmissionQueued {
        /// The parked client.
        client: u32,
    },
    /// A run was deferred because the lifecycle manager is still loading or
    /// warming the target model version; the attribution layer opens a
    /// load-wait phase here.
    LifecycleWait {
        /// The waiting client.
        client: u32,
    },
    /// A client's admission failed on GPU memory.
    ClientRejectedOom {
        /// The rejected client.
        client: u32,
        /// Bytes the admission attempt needed.
        requested: u64,
        /// Bytes that were free.
        available: u64,
    },
    /// A client finished its whole session.
    ClientFinished {
        /// The finished client.
        client: u32,
    },
    /// A `Session::Run` registered with the scheduler.
    RunRegistered {
        /// The new job.
        job: u64,
        /// Its owner.
        client: u32,
    },
    /// A `Session::Run` completed all nodes.
    RunCompleted {
        /// The finished job.
        job: u64,
        /// Its owner.
        client: u32,
    },
    /// A run blew through its deadline and was cancelled.
    DeadlineCancelled {
        /// The cancelled job.
        job: u64,
        /// Its owner.
        client: u32,
    },
    /// The token was taken from a job.
    TokenRevoke {
        /// The previous holder.
        job: u64,
        /// Its owner, when still known (a job revoked *because* it
        /// deregistered has already left the job table).
        client: Option<u32>,
        /// Why the token moved.
        reason: SwitchReason,
    },
    /// The token was granted to a job.
    TokenGrant {
        /// The new holder.
        job: u64,
        /// Its owner, when known.
        client: Option<u32>,
        /// Why the token moved.
        reason: SwitchReason,
    },
    /// A quantum ended: the holder's accumulated GPU time was flushed.
    /// By convention the quantum span is `[at - gpu, at]`.
    QuantumEnd {
        /// The job whose quantum ended.
        job: u64,
        /// Its owner.
        client: u32,
        /// GPU duration received during the quantum (including overflow
        /// charges).
        gpu: SimDuration,
    },
    /// A job's cumulated profiled cost crossed its quantum threshold.
    CostThreshold {
        /// The crossing job.
        job: u64,
        /// Its owner.
        client: u32,
        /// Cumulated cost at the crossing (cost units).
        cumulated: u64,
        /// The threshold `T_j` it crossed.
        threshold: u64,
    },
    /// A gang thread hit the cooperative yield gate and parked (first
    /// blocked dispatch per suspension, not one event per parked thread).
    YieldBlock {
        /// The suspended job.
        job: u64,
        /// Its owner.
        client: u32,
    },
    /// A previously yield-blocked job was granted the token again.
    YieldUnblock {
        /// The resumed job.
        job: u64,
        /// Its owner.
        client: u32,
    },
    /// A kernel completed for a job that no longer holds the token: its
    /// cost is still charged to that job (the paper's overflow rule).
    OverflowCharge {
        /// The charged job.
        job: u64,
        /// Its owner.
        client: u32,
        /// Device the kernel ran on.
        device: u32,
        /// GPU duration charged.
        gpu: SimDuration,
    },
    /// A kernel was submitted to the device driver queue (Full mode only).
    KernelEnqueue {
        /// The launching job.
        job: u64,
        /// Its owner.
        client: u32,
        /// Target device.
        device: u32,
        /// Graph node of the kernel.
        node: u32,
    },
    /// A kernel started executing on the device (Full mode only).
    KernelLaunch {
        /// The launching job.
        job: u64,
        /// Its owner.
        client: u32,
        /// Executing device.
        device: u32,
        /// Graph node of the kernel.
        node: u32,
        /// Execution start.
        start: SimTime,
        /// Execution end.
        end: SimTime,
    },
    /// A kernel's completion was observed by the engine (Full mode only).
    KernelComplete {
        /// The launching job.
        job: u64,
        /// Its owner.
        client: u32,
        /// Executing device.
        device: u32,
        /// Graph node of the kernel.
        node: u32,
        /// GPU duration of the kernel.
        gpu: SimDuration,
    },
    /// The streaming drift detector flagged a client's offline profile as
    /// stale mid-run (telemetry layer). Values are integer-encoded so the
    /// kind stays `Eq`: µs are rounded, the relative deviation is
    /// parts-per-million.
    DriftAlert {
        /// The drifting client.
        client: u32,
        /// Smoothed observed quantum length, µs.
        observed_us: u64,
        /// Expected (target) quantum length, µs.
        expected_us: u64,
        /// `|observed - expected| / expected`, in parts-per-million.
        deviation_ppm: u64,
    },
    /// The SLO monitor's multi-window burn rate crossed its alerting
    /// threshold for one latency objective (telemetry layer). Burn rates
    /// are integer-encoded ×1e6 so the kind stays `Eq`.
    SloBurnAlert {
        /// Index of the SLO objective in the telemetry config.
        slo: u32,
        /// Short-window burn rate, ×1e6.
        short_ppm: u64,
        /// Long-window burn rate, ×1e6.
        long_ppm: u64,
    },
    /// A kernel launch transiently failed (injected fault).
    KernelFault {
        /// The launching job.
        job: u64,
        /// Its owner.
        client: u32,
        /// Target device.
        device: u32,
        /// Graph node of the kernel.
        node: u32,
        /// 0-based attempt that failed.
        attempt: u32,
    },
    /// A memory reservation transiently failed during admission
    /// (injected fault).
    AllocFault {
        /// The affected client.
        client: u32,
        /// 0-based admission attempt that failed.
        attempt: u32,
    },
    /// A retry was scheduled after deterministic exponential backoff.
    RetryScheduled {
        /// The retrying job (`u64::MAX` for an admission retry, which has
        /// no job yet).
        job: u64,
        /// Its owner.
        client: u32,
        /// Graph node being retried (`u32::MAX` for admission).
        node: u32,
        /// 0-based attempt the retry will make.
        attempt: u32,
        /// Backoff delay until the retry.
        delay: SimDuration,
    },
    /// A client's circuit breaker changed state.
    BreakerTransition {
        /// The client the breaker guards.
        client: u32,
        /// New breaker state, kebab-case ("closed"/"open"/"half-open").
        state: &'static str,
    },
    /// The token-hold watchdog revoked the token from a stalled holder;
    /// the stall is charged to the holder like an overflow kernel.
    WatchdogRevoke {
        /// The stalled (now revoked) holder.
        job: u64,
        /// Its owner.
        client: u32,
        /// How long the holder had made no GPU progress, µs.
        stalled_us: u64,
    },
    /// The device entered a planned stall window (injected fault).
    DeviceStall {
        /// The stalled device.
        device: u32,
        /// Window end, µs since run start.
        until_us: u64,
    },
    /// A model version's weights started transferring to the device
    /// (lifecycle layer).
    VersionLoad {
        /// Deployment index in the lifecycle plan.
        model: u32,
        /// Version number (1-based).
        version: u32,
        /// Weight bytes being loaded.
        bytes: u64,
    },
    /// A freshly loaded version completed one warm-up run (lifecycle
    /// layer).
    WarmupRun {
        /// Deployment index in the lifecycle plan.
        model: u32,
        /// Version number (1-based).
        version: u32,
        /// Warm-up run ordinal (1-based).
        run: u32,
    },
    /// An idle version was evicted to make room for a load (lifecycle
    /// layer).
    Evict {
        /// Deployment index in the lifecycle plan.
        model: u32,
        /// Version number (1-based).
        version: u32,
        /// Weight bytes freed.
        bytes: u64,
    },
    /// A canary candidate was promoted to the serving version (lifecycle
    /// layer).
    CanaryPromote {
        /// Deployment index in the lifecycle plan.
        model: u32,
        /// The promoted version number (1-based).
        version: u32,
    },
    /// A canary candidate was rolled back (lifecycle layer).
    CanaryRollback {
        /// Deployment index in the lifecycle plan.
        model: u32,
        /// The rejected version number (1-based).
        version: u32,
    },
    /// A version stopped accepting new runs and started draining
    /// (lifecycle layer). Its unload, immediate when `inflight == 0` or
    /// after the last in-flight run, records no event; telemetry counts
    /// it as `versions_unloaded`.
    Drain {
        /// Deployment index in the lifecycle plan.
        model: u32,
        /// Version number (1-based).
        version: u32,
        /// Runs still in flight at this instant.
        inflight: u32,
    },
    /// The control plane's degradation ladder changed rungs (control
    /// layer).
    ControlTransition {
        /// The rung left, kebab-case ("healthy"/"degraded"/"shedding").
        from: &'static str,
        /// The rung entered.
        to: &'static str,
    },
    /// A new admission was rejected by the Shedding rung (control layer).
    AdmissionShed {
        /// The rejected client.
        client: u32,
    },
    /// A run's batch hint was shrunk by the Degraded rung before scheduler
    /// registration (control layer).
    BatchShrink {
        /// The affected client.
        client: u32,
        /// The client's configured batch hint.
        from: u64,
        /// The shrunk hint the run registered with.
        to: u64,
    },
    /// A drift alert triggered an in-run rebind of a freshly scaled
    /// profile (control layer).
    ProfileRebind {
        /// The drifting client whose model was rebound.
        client: u32,
        /// GPU-duration scale applied, parts-per-million (1e6 = unchanged).
        scale_ppm: u64,
    },
    /// A laxity-negative run was cancelled early by the control loop —
    /// its expected remaining GPU work could no longer fit before its
    /// deadline (control layer).
    LaxityCancel {
        /// The cancelled job.
        job: u64,
        /// Its owner.
        client: u32,
        /// How far past the deadline the run would have landed, µs.
        deficit_us: u64,
    },
    /// The cluster router stamped an arriving run and sent it to the
    /// cheapest device (cluster layer).
    ClusterRoute {
        /// The routed client.
        client: u32,
        /// The chosen device.
        device: u32,
        /// The winning estimated completion cost, µs.
        cost_us: u64,
    },
    /// The reconfiguration plan moved a model between devices: a drain on
    /// `from` paired with a load on `to` (cluster layer).
    ClusterMigrate {
        /// Deployment index in the lifecycle plan.
        model: u32,
        /// Device draining the model.
        from: u32,
        /// Device loading the model.
        to: u32,
    },
    /// One `ClusterTick` solved the min-cost flow and executed its plan
    /// (cluster layer).
    ClusterReconfig {
        /// Loads issued by this plan.
        loads: u32,
        /// Drains issued by this plan.
        drains: u32,
    },
}

impl TraceKind {
    /// Whether this is one of the per-kernel (Full-mode-only) events.
    pub fn is_kernel(&self) -> bool {
        matches!(
            self,
            TraceKind::KernelEnqueue { .. }
                | TraceKind::KernelLaunch { .. }
                | TraceKind::KernelComplete { .. }
        )
    }

    /// The client the event belongs to, when known.
    pub fn client(&self) -> Option<u32> {
        match *self {
            TraceKind::ClientAdmitted { client, .. }
            | TraceKind::ClientRejectedOom { client, .. }
            | TraceKind::ClientFinished { client }
            | TraceKind::AdmissionQueued { client }
            | TraceKind::LifecycleWait { client }
            | TraceKind::RunRegistered { client, .. }
            | TraceKind::RunCompleted { client, .. }
            | TraceKind::DeadlineCancelled { client, .. }
            | TraceKind::QuantumEnd { client, .. }
            | TraceKind::CostThreshold { client, .. }
            | TraceKind::YieldBlock { client, .. }
            | TraceKind::YieldUnblock { client, .. }
            | TraceKind::OverflowCharge { client, .. }
            | TraceKind::KernelEnqueue { client, .. }
            | TraceKind::KernelLaunch { client, .. }
            | TraceKind::KernelComplete { client, .. }
            | TraceKind::DriftAlert { client, .. }
            | TraceKind::KernelFault { client, .. }
            | TraceKind::AllocFault { client, .. }
            | TraceKind::RetryScheduled { client, .. }
            | TraceKind::BreakerTransition { client, .. }
            | TraceKind::WatchdogRevoke { client, .. }
            | TraceKind::AdmissionShed { client }
            | TraceKind::BatchShrink { client, .. }
            | TraceKind::ProfileRebind { client, .. }
            | TraceKind::LaxityCancel { client, .. }
            | TraceKind::ClusterRoute { client, .. } => Some(client),
            TraceKind::TokenRevoke { client, .. } | TraceKind::TokenGrant { client, .. } => client,
            TraceKind::SloBurnAlert { .. }
            | TraceKind::DeviceStall { .. }
            | TraceKind::VersionLoad { .. }
            | TraceKind::WarmupRun { .. }
            | TraceKind::Evict { .. }
            | TraceKind::CanaryPromote { .. }
            | TraceKind::CanaryRollback { .. }
            | TraceKind::Drain { .. }
            | TraceKind::ControlTransition { .. }
            | TraceKind::ClusterMigrate { .. }
            | TraceKind::ClusterReconfig { .. } => None,
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number, dense from 0 per run (dropped ring
    /// entries leave gaps at the front, never in the middle).
    pub seq: u64,
    /// Virtual time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.at)?;
        let opt = |c: Option<u32>| c.map_or("-".to_string(), |c| format!("client{c}"));
        match self.kind {
            TraceKind::ClientAdmitted { client, device } => {
                write!(f, "client{client} admitted (gpu{device})")
            }
            TraceKind::AdmissionQueued { client } => {
                write!(f, "client{client} queued for admission")
            }
            TraceKind::LifecycleWait { client } => {
                write!(f, "client{client} waiting on lifecycle load/warmup")
            }
            TraceKind::ClientRejectedOom { client, requested, available } => write!(
                f,
                "client{client} rejected (oom: {requested} B requested, {available} B free)"
            ),
            TraceKind::ClientFinished { client } => write!(f, "client{client} finished"),
            TraceKind::RunRegistered { job, client } => {
                write!(f, "job{job} registered (client{client})")
            }
            TraceKind::RunCompleted { job, client } => {
                write!(f, "job{job} completed (client{client})")
            }
            TraceKind::DeadlineCancelled { job, client } => {
                write!(f, "job{job} cancelled by deadline (client{client})")
            }
            TraceKind::TokenRevoke { job, client, reason } => {
                write!(f, "token revoked from job{job} ({}, {reason})", opt(client))
            }
            TraceKind::TokenGrant { job, client, reason } => {
                write!(f, "token granted to job{job} ({}, {reason})", opt(client))
            }
            TraceKind::QuantumEnd { job, client, gpu } => {
                write!(f, "quantum end job{job} (client{client}, gpu {gpu})")
            }
            TraceKind::CostThreshold { job, client, cumulated, threshold } => write!(
                f,
                "cost threshold job{job} (client{client}, {cumulated}/{threshold} units)"
            ),
            TraceKind::YieldBlock { job, client } => {
                write!(f, "yield block job{job} (client{client})")
            }
            TraceKind::YieldUnblock { job, client } => {
                write!(f, "yield unblock job{job} (client{client})")
            }
            TraceKind::OverflowCharge { job, client, device, gpu } => write!(
                f,
                "overflow charge job{job} (client{client}, gpu{device}, {gpu})"
            ),
            TraceKind::KernelEnqueue { job, client, device, node } => write!(
                f,
                "kernel enqueue job{job} node{node} (client{client}, gpu{device})"
            ),
            TraceKind::KernelLaunch { job, client, device, node, start, end } => write!(
                f,
                "kernel launch job{job} node{node} (client{client}, gpu{device}, {start}..{end})"
            ),
            TraceKind::KernelComplete { job, client, device, node, gpu } => write!(
                f,
                "kernel complete job{job} node{node} (client{client}, gpu{device}, {gpu})"
            ),
            TraceKind::DriftAlert { client, observed_us, expected_us, deviation_ppm } => write!(
                f,
                "drift alert client{client} (observed {observed_us}us vs expected \
                 {expected_us}us, deviation {deviation_ppm}ppm)"
            ),
            TraceKind::SloBurnAlert { slo, short_ppm, long_ppm } => write!(
                f,
                "slo burn alert objective{slo} (short {short_ppm}ppm, long {long_ppm}ppm)"
            ),
            TraceKind::KernelFault { job, client, device, node, attempt } => write!(
                f,
                "kernel fault job{job} node{node} (client{client}, gpu{device}, attempt {attempt})"
            ),
            TraceKind::AllocFault { client, attempt } => {
                write!(f, "alloc fault client{client} (attempt {attempt})")
            }
            TraceKind::RetryScheduled { job, client, node, attempt, delay } => {
                if job == u64::MAX {
                    write!(f, "admission retry client{client} (attempt {attempt}, backoff {delay})")
                } else {
                    write!(
                        f,
                        "retry job{job} node{node} (client{client}, attempt {attempt}, \
                         backoff {delay})"
                    )
                }
            }
            TraceKind::BreakerTransition { client, state } => {
                write!(f, "breaker {state} client{client}")
            }
            TraceKind::WatchdogRevoke { job, client, stalled_us } => write!(
                f,
                "watchdog revoke job{job} (client{client}, stalled {stalled_us}us)"
            ),
            TraceKind::DeviceStall { device, until_us } => {
                write!(f, "device stall gpu{device} (until {until_us}us)")
            }
            TraceKind::VersionLoad { model, version, bytes } => {
                write!(f, "version load m{model}@v{version} ({bytes} B)")
            }
            TraceKind::WarmupRun { model, version, run } => {
                write!(f, "warmup run m{model}@v{version} (run {run})")
            }
            TraceKind::Evict { model, version, bytes } => {
                write!(f, "evict m{model}@v{version} ({bytes} B)")
            }
            TraceKind::CanaryPromote { model, version } => {
                write!(f, "canary promote m{model}@v{version}")
            }
            TraceKind::CanaryRollback { model, version } => {
                write!(f, "canary rollback m{model}@v{version}")
            }
            TraceKind::Drain { model, version, inflight } => {
                write!(f, "drain m{model}@v{version} ({inflight} in flight)")
            }
            TraceKind::ControlTransition { from, to } => {
                write!(f, "control transition {from} -> {to}")
            }
            TraceKind::AdmissionShed { client } => {
                write!(f, "admission shed client{client}")
            }
            TraceKind::BatchShrink { client, from, to } => {
                write!(f, "batch shrink client{client} ({from} -> {to})")
            }
            TraceKind::ProfileRebind { client, scale_ppm } => {
                write!(f, "profile rebind client{client} (scale {scale_ppm}ppm)")
            }
            TraceKind::LaxityCancel { job, client, deficit_us } => {
                write!(f, "laxity cancel job{job} (client{client}, deficit {deficit_us}us)")
            }
            TraceKind::ClusterRoute { client, device, cost_us } => {
                write!(f, "cluster route client{client} -> gpu{device} (cost {cost_us}us)")
            }
            TraceKind::ClusterMigrate { model, from, to } => {
                write!(f, "cluster migrate m{model} gpu{from} -> gpu{to}")
            }
            TraceKind::ClusterReconfig { loads, drains } => {
                write!(f, "cluster reconfigure ({loads} loads, {drains} drains)")
            }
        }
    }
}

/// The engine-side recorder: a pre-allocated arena or bounded ring.
///
/// All recording goes through [`record`](TraceBuffer::record), which
/// assigns sequence numbers; when the mode is [`TraceMode::Off`] it is a
/// single branch and no event is ever constructed into the buffer.
#[derive(Debug)]
pub struct TraceBuffer {
    on: bool,
    kernels: bool,
    ring: Option<usize>,
    /// Next slot to overwrite once the ring is full.
    write: usize,
    next_seq: u64,
    dropped: u64,
    events: Vec<TraceEvent>,
}

/// Initial arena capacity when tracing is enabled without a ring bound.
const ARENA_CAPACITY: usize = 1024;

impl TraceBuffer {
    /// Creates a buffer for the given configuration. Allocates nothing when
    /// tracing is off.
    pub fn new(cfg: &TraceConfig) -> TraceBuffer {
        let capacity = match (cfg.mode, cfg.ring_capacity) {
            (TraceMode::Off, _) => 0,
            (_, Some(n)) => n,
            (_, None) => ARENA_CAPACITY,
        };
        TraceBuffer {
            on: cfg.mode != TraceMode::Off,
            kernels: cfg.mode == TraceMode::Full,
            ring: cfg.ring_capacity,
            write: 0,
            next_seq: 0,
            dropped: 0,
            events: Vec::with_capacity(capacity),
        }
    }

    /// Whether any events are recorded. Callers use this to skip building
    /// event payloads (e.g. client lookups) entirely.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Whether per-kernel events are recorded (Full mode). The engine's
    /// kernel hot path checks this single flag.
    #[inline]
    pub fn records_kernels(&self) -> bool {
        self.kernels
    }

    /// Records one event at `at`, assigning the next sequence number.
    /// No-op when tracing is off; kernel events are dropped outside Full
    /// mode so call sites may record unconditionally.
    #[inline]
    pub fn record(&mut self, at: SimTime, kind: TraceKind) {
        if !self.on || (!self.kernels && kind.is_kernel()) {
            return;
        }
        let event = TraceEvent { seq: self.next_seq, at, kind };
        self.next_seq += 1;
        match self.ring {
            Some(cap) if self.events.len() == cap => {
                self.events[self.write] = event;
                self.write = (self.write + 1) % cap;
                self.dropped += 1;
            }
            _ => self.events.push(event),
        }
    }

    /// Events overwritten by the ring so far. Available before
    /// [`finish`](TraceBuffer::finish) so the engine can surface the count
    /// through telemetry while the buffer is still live.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finishes recording, rotating ring contents into sequence order.
    pub fn finish(mut self) -> Trace {
        if self.write > 0 {
            // The oldest retained event sits at the write cursor.
            self.events.rotate_left(self.write);
        }
        Trace { events: self.events, dropped: self.dropped }
    }
}

/// A finished trace: events in sequence (= time) order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The retained events, ascending `seq`.
    pub events: Vec<TraceEvent>,
    /// Events overwritten by the ring (always the oldest ones).
    pub dropped: u64,
}

impl Trace {
    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events matching a predicate on their kind.
    pub fn filter<'a>(
        &'a self,
        pred: impl Fn(&TraceKind) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| pred(&e.kind))
    }
}

/// Renders a trace as one line per event; `limit` caps the output
/// (`usize::MAX` for everything).
pub fn render_trace(trace: &Trace, limit: usize) -> String {
    let mut out = String::new();
    if trace.dropped > 0 {
        out.push_str(&format!("... ({} events dropped by the ring)\n", trace.dropped));
    }
    for event in trace.events.iter().take(limit) {
        out.push_str(&event.to_string());
        out.push('\n');
    }
    if trace.len() > limit {
        out.push_str(&format!("... ({} more events)\n", trace.len() - limit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(client: u32) -> TraceKind {
        TraceKind::ClientFinished { client }
    }

    #[test]
    fn off_buffer_records_nothing() {
        let mut b = TraceBuffer::new(&TraceConfig::off());
        assert!(!b.is_on());
        b.record(SimTime::ZERO, ev(0));
        let t = b.finish();
        assert!(t.is_empty());
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn sampled_buffer_drops_kernel_events_only() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled());
        assert!(b.is_on());
        assert!(!b.records_kernels());
        b.record(SimTime::ZERO, ev(0));
        b.record(
            SimTime::from_nanos(5),
            TraceKind::KernelEnqueue { job: 0, client: 0, device: 0, node: 0 },
        );
        b.record(SimTime::from_nanos(9), ev(1));
        let t = b.finish();
        assert_eq!(t.len(), 2);
        // Sequence numbers stay dense: the skipped kernel event consumed none.
        assert_eq!(t.events[0].seq, 0);
        assert_eq!(t.events[1].seq, 1);
    }

    #[test]
    fn full_buffer_keeps_kernel_events() {
        let mut b = TraceBuffer::new(&TraceConfig::full());
        assert!(b.records_kernels());
        b.record(
            SimTime::ZERO,
            TraceKind::KernelComplete {
                job: 1,
                client: 0,
                device: 0,
                node: 3,
                gpu: SimDuration::from_micros(7),
            },
        );
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn ring_keeps_newest_in_seq_order() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled().with_ring(3));
        for i in 0..7u32 {
            b.record(SimTime::from_nanos(u64::from(i)), ev(i));
        }
        let t = b.finish();
        assert_eq!(t.dropped, 4);
        let seqs: Vec<u64> = t.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn zero_ring_rejected() {
        let _ = TraceConfig::full().with_ring(0);
    }

    #[test]
    fn events_render_compactly() {
        let e = TraceEvent {
            seq: 3,
            at: SimTime::from_micros(1500),
            kind: TraceKind::TokenGrant {
                job: 1,
                client: Some(0),
                reason: SwitchReason::QuantumExpired,
            },
        };
        assert_eq!(
            e.to_string(),
            "[0.001500s] token granted to job1 (client0, quantum-expired)"
        );
    }

    #[test]
    fn render_caps_output() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled());
        for i in 0..10u32 {
            b.record(SimTime::from_nanos(u64::from(i)), ev(i));
        }
        let t = b.finish();
        let out = render_trace(&t, 3);
        assert_eq!(out.lines().count(), 4);
        assert!(out.contains("7 more events"));
        let full = render_trace(&t, usize::MAX);
        assert_eq!(full.lines().count(), 10);
    }

    #[test]
    fn kind_client_lookup_covers_every_variant() {
        assert_eq!(ev(4).client(), Some(4));
        assert_eq!(
            TraceKind::TokenRevoke {
                job: 1,
                client: None,
                reason: SwitchReason::Deregister
            }
            .client(),
            None
        );
        assert_eq!(
            TraceKind::QuantumEnd { job: 1, client: 9, gpu: SimDuration::ZERO }.client(),
            Some(9)
        );
        assert_eq!(
            TraceKind::DriftAlert {
                client: 2,
                observed_us: 260,
                expected_us: 200,
                deviation_ppm: 300_000
            }
            .client(),
            Some(2)
        );
        assert_eq!(
            TraceKind::SloBurnAlert { slo: 0, short_ppm: 2_000_000, long_ppm: 1_500_000 }
                .client(),
            None
        );
        assert_eq!(
            TraceKind::ControlTransition { from: "healthy", to: "degraded" }.client(),
            None
        );
        assert_eq!(TraceKind::AdmissionShed { client: 7 }.client(), Some(7));
        assert_eq!(TraceKind::BatchShrink { client: 3, from: 4, to: 2 }.client(), Some(3));
        assert_eq!(
            TraceKind::ProfileRebind { client: 5, scale_ppm: 1_400_000 }.client(),
            Some(5)
        );
        assert_eq!(
            TraceKind::LaxityCancel { job: 2, client: 1, deficit_us: 900 }.client(),
            Some(1)
        );
    }

    #[test]
    fn control_events_render() {
        let e = TraceEvent {
            seq: 0,
            at: SimTime::from_micros(100),
            kind: TraceKind::LaxityCancel { job: 4, client: 2, deficit_us: 750 },
        };
        assert_eq!(
            e.to_string(),
            "[0.000100s] laxity cancel job4 (client2, deficit 750us)"
        );
        let t = TraceEvent {
            seq: 1,
            at: SimTime::from_micros(101),
            kind: TraceKind::ControlTransition { from: "degraded", to: "shedding" },
        };
        assert_eq!(t.to_string(), "[0.000101s] control transition degraded -> shedding");
    }

    #[test]
    fn cluster_events_render_and_attribute() {
        let r = TraceEvent {
            seq: 0,
            at: SimTime::from_micros(10),
            kind: TraceKind::ClusterRoute { client: 2, device: 1, cost_us: 640 },
        };
        assert_eq!(r.to_string(), "[0.000010s] cluster route client2 -> gpu1 (cost 640us)");
        assert_eq!(r.kind.client(), Some(2));
        let m = TraceEvent {
            seq: 1,
            at: SimTime::from_micros(11),
            kind: TraceKind::ClusterMigrate { model: 3, from: 0, to: 2 },
        };
        assert_eq!(m.to_string(), "[0.000011s] cluster migrate m3 gpu0 -> gpu2");
        assert_eq!(m.kind.client(), None);
        let g = TraceEvent {
            seq: 2,
            at: SimTime::from_micros(12),
            kind: TraceKind::ClusterReconfig { loads: 2, drains: 1 },
        };
        assert_eq!(g.to_string(), "[0.000012s] cluster reconfigure (2 loads, 1 drains)");
        assert_eq!(g.kind.client(), None);
    }

    #[test]
    fn alert_events_render_compactly() {
        let e = TraceEvent {
            seq: 0,
            at: SimTime::from_micros(900),
            kind: TraceKind::DriftAlert {
                client: 1,
                observed_us: 280,
                expected_us: 200,
                deviation_ppm: 400_000,
            },
        };
        assert_eq!(
            e.to_string(),
            "[0.000900s] drift alert client1 (observed 280us vs expected 200us, \
             deviation 400000ppm)"
        );
        let s = TraceEvent {
            seq: 1,
            at: SimTime::from_micros(901),
            kind: TraceKind::SloBurnAlert { slo: 3, short_ppm: 4_000_000, long_ppm: 2_100_000 },
        };
        assert!(s.to_string().contains("slo burn alert objective3"));
    }
}
