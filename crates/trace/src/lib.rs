#![deny(missing_docs)]

//! Deterministic structured tracing for the serving stack.
//!
//! The serving engine records typed [`TraceEvent`]s — token movements with
//! their reason, quantum boundaries, cost-threshold crossings, cooperative
//! yields, kernel enqueue and launch, overflow charges and client
//! lifecycle — into a [`TraceBuffer`]: a pre-allocated arena (optionally a
//! bounded ring) that allocates nothing in steady state. Every event is
//! stamped with its virtual [`SimTime`] and a monotonic sequence number, so
//! a trace of a deterministic run is **byte-identical** however the
//! surrounding harness is parallelized: the simulation owning the buffer is
//! single-threaded on a virtual clock, and nothing in here consults wall
//! clocks, thread ids or iteration order of unordered containers.
//!
//! A finished [`Trace`] is read three ways:
//!
//! * [`export::chrome_trace_json`] — Chrome trace-event JSON loadable in
//!   Perfetto / `chrome://tracing`, one track per client plus one per GPU
//!   device;
//! * [`export::render_trace`] — the same rows as text, one line per event;
//! * [`stats::TraceStats`] — the overhead attribution (token switches,
//!   quantum-length distribution, overflow µs, scheduler-overhead µs)
//!   behind the `overhead` report and `olympctl trace`.

use simtime::{SimDuration, SimTime};

pub mod export;
pub mod stats;

pub use export::{chrome_trace_json, render_trace, EventArg, EventWriter, TraceMeta};
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
    /// Everything, including one enqueue and one launch per GPU kernel.
    /// Needed for device-idle overhead attribution.
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

/// Why the recovery layer shed a client: its `faults::Next::Shed` verdict,
/// carried as is on the shed [`TraceKind::BreakerTransition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The retry budget ran out after this many failed attempts.
    RetriesExhausted {
        /// Failed attempts, the last one included.
        attempts: u32,
    },
    /// The client's breaker spent its trip budget.
    CircuitOpen {
        /// Trips, the last one included.
        trips: u32,
    },
}

impl ShedCause {
    /// Stable kebab-case label: `retries-exhausted` or `circuit-open`.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedCause::RetriesExhausted { .. } => "retries-exhausted",
            ShedCause::CircuitOpen { .. } => "circuit-open",
        }
    }

    /// The attempt or trip count.
    pub fn count(self) -> u32 {
        match self {
            ShedCause::RetriesExhausted { attempts: n } | ShedCause::CircuitOpen { trips: n } => n,
        }
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
        /// Registration-to-completion latency.
        latency: SimDuration,
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
    /// A kernel was submitted to the device driver queue (kept in Full
    /// mode only). The holder's first enqueue after a token grant is
    /// recorded in every mode, so telemetry sees its hand-off.
    KernelEnqueue {
        /// The launching job.
        job: u64,
        /// Its owner.
        client: u32,
        /// Target device.
        device: u32,
        /// Graph node of the kernel.
        node: u32,
        /// Grant-to-enqueue latency, on the holder's first enqueue after
        /// a grant.
        handoff: Option<SimDuration>,
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
        /// New breaker state, kebab-case ("closed"/"open"/"half-open"/
        /// "shed").
        state: &'static str,
        /// Why the client was shed, on the "shed" transition.
        shed: Option<ShedCause>,
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
        /// Candidate mean run latency, µs.
        cand_us: u64,
        /// Incumbent mean run latency, µs.
        base_us: u64,
    },
    /// A canary candidate was rolled back (lifecycle layer). Zero
    /// latencies mean a newer publish superseded it undecided.
    CanaryRollback {
        /// Deployment index in the lifecycle plan.
        model: u32,
        /// The rejected version number (1-based).
        version: u32,
        /// Candidate mean run latency, µs.
        cand_us: u64,
        /// Incumbent mean run latency, µs.
        base_us: u64,
    },
    /// A version stopped accepting new runs and started draining
    /// (lifecycle layer). Its [`Unload`](TraceKind::Unload) follows at once
    /// when `inflight == 0`, else after the last in-flight run.
    Drain {
        /// Deployment index in the lifecycle plan.
        model: u32,
        /// Version number (1-based).
        version: u32,
        /// Runs still in flight at this instant.
        inflight: u32,
    },
    /// A drained version was unloaded (lifecycle layer).
    Unload {
        /// Deployment index in the lifecycle plan.
        model: u32,
        /// Version number (1-based).
        version: u32,
        /// Weight bytes freed.
        bytes: u64,
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
            TraceKind::KernelEnqueue { .. } | TraceKind::KernelLaunch { .. }
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
            | TraceKind::Unload { .. }
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

    /// Finishes recording, rotating ring contents into sequence order and
    /// freeing the arena's unused tail: a doubled arena can be up to half
    /// empty, and the finished trace lives as long as its report.
    pub fn finish(mut self) -> Trace {
        if self.write > 0 {
            // The oldest retained event sits at the write cursor.
            self.events.rotate_left(self.write);
        }
        self.events.shrink_to_fit();
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
            TraceKind::KernelEnqueue { job: 0, client: 0, device: 0, node: 0, handoff: None },
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
        let (start, end) = (SimTime::ZERO, SimTime::from_micros(7));
        b.record(
            start,
            TraceKind::KernelLaunch { job: 1, client: 0, device: 0, node: 3, start, end },
        );
        assert_eq!(b.finish().len(), 1);
    }

    /// Every trace keeps its events by value, in `TraceBuffer`'s arena or
    /// ring and in the finished `Trace`, and a Sampled arena doubles from
    /// 1,024 slots as it fills: a wider kind costs 8 bytes per slot in
    /// every trace. So a new field must fit the 40 bytes the widest kind
    /// (`KernelLaunch`) already takes.
    #[test]
    fn events_stay_56_bytes() {
        assert_eq!(std::mem::size_of::<TraceKind>(), 40);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 56);
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

    /// One event past the initial arena doubles it to 2,048 slots; the
    /// finished trace keeps only the slots it filled.
    #[test]
    fn finished_arena_frees_its_unused_tail() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled());
        for i in 0..=ARENA_CAPACITY as u32 {
            b.record(SimTime::from_nanos(u64::from(i)), ev(i));
        }
        let t = b.finish();
        assert_eq!(t.len(), ARENA_CAPACITY + 1);
        assert_eq!(t.events.capacity(), t.len());
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn zero_ring_rejected() {
        let _ = TraceConfig::full().with_ring(0);
    }

    /// The line `render_trace` prints for one event at `us` µs.
    fn line(us: u64, kind: TraceKind) -> String {
        let event = TraceEvent { seq: 0, at: SimTime::from_micros(us), kind };
        let trace = Trace { events: vec![event], dropped: 0 };
        render_trace(&trace, 1).trim_end().to_string()
    }

    #[test]
    fn events_render_compactly() {
        let reason = SwitchReason::QuantumExpired;
        assert_eq!(
            line(1500, TraceKind::TokenGrant { job: 1, client: Some(0), reason }),
            "[0.001500s] client0 token-grant job=1 reason=quantum-expired"
        );
        let reason = SwitchReason::Deregister;
        assert_eq!(
            line(1501, TraceKind::TokenRevoke { job: 1, client: None, reason }),
            "[0.001501s] scheduler token-revoke job=1 reason=deregister"
        );
        // Slices print their duration: a quantum its GPU time, a kernel its run.
        let gpu = SimDuration::from_nanos(15_250);
        assert_eq!(
            line(60, TraceKind::QuantumEnd { job: 1, client: 0, gpu }),
            "[0.000060s] client0 quantum dur_us=15.25 job=1"
        );
        let (start, end) = (SimTime::from_micros(40), SimTime::from_micros(55));
        assert_eq!(
            line(40, TraceKind::KernelLaunch { job: 1, client: 0, device: 2, node: 3, start, end }),
            "[0.000040s] gpu2 kernel dur_us=15.0 job=1 client=0 node=3"
        );
        let enqueue =
            |handoff| TraceKind::KernelEnqueue { job: 1, client: 0, device: 2, node: 3, handoff };
        assert_eq!(
            line(30, enqueue(None)),
            "[0.000030s] client0 kernel-enqueue job=1 device=2 node=3"
        );
        assert_eq!(
            line(30, enqueue(Some(SimDuration::from_micros(4)))),
            "[0.000030s] client0 kernel-enqueue job=1 device=2 node=3 handoff_us=4.0"
        );
        assert_eq!(
            line(70, TraceKind::DeviceStall { device: 1, until_us: 90 }),
            "[0.000070s] gpu1 device-stall until_us=90"
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
        assert_eq!(
            line(100, TraceKind::LaxityCancel { job: 4, client: 2, deficit_us: 750 }),
            "[0.000100s] client2 laxity-cancel job=4 deficit_us=750"
        );
        assert_eq!(
            line(101, TraceKind::ControlTransition { from: "degraded", to: "shedding" }),
            "[0.000101s] scheduler control-degraded-to-shedding"
        );
    }

    #[test]
    fn cluster_events_render_and_attribute() {
        let route = TraceKind::ClusterRoute { client: 2, device: 1, cost_us: 640 };
        assert_eq!(line(10, route), "[0.000010s] client2 cluster-route device=1 cost_us=640");
        assert_eq!(route.client(), Some(2));
        let migrate = TraceKind::ClusterMigrate { model: 3, from: 0, to: 2 };
        assert_eq!(line(11, migrate), "[0.000011s] scheduler cluster-migrate model=3 from=0 to=2");
        assert_eq!(migrate.client(), None);
        let reconfig = TraceKind::ClusterReconfig { loads: 2, drains: 1 };
        assert_eq!(
            line(12, reconfig),
            "[0.000012s] scheduler cluster-reconfigure loads=2 drains=1"
        );
        assert_eq!(reconfig.client(), None);
    }

    #[test]
    fn alert_events_render_compactly() {
        let drift =
            TraceKind::DriftAlert { client: 1, observed_us: 280, expected_us: 200, deviation_ppm: 400_000 };
        assert_eq!(
            line(900, drift),
            "[0.000900s] client1 drift-alert observed_us=280 expected_us=200 deviation_ppm=400000"
        );
        let burn = TraceKind::SloBurnAlert { slo: 3, short_ppm: 4_000_000, long_ppm: 2_100_000 };
        assert_eq!(
            line(901, burn),
            "[0.000901s] scheduler slo-burn-alert slo=3 short_ppm=4000000 long_ppm=2100000"
        );
        let open = TraceKind::BreakerTransition { client: 0, state: "open", shed: None };
        assert_eq!(line(902, open), "[0.000902s] client0 breaker-open");
    }
}
