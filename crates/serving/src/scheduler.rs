//! The scheduler hook surface — the extension points Olympian adds to
//! TF-Serving's processing loop (Algorithm 2 of the paper).

use dataflow::NodeId;
use simtime::SimTime;
use std::fmt;
use trace::SwitchReason;

/// Identifier of one `Session::Run` invocation (the paper's `srInfo`).
/// Unique across the whole experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Identifier of a client (one request stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// Context the engine provides when registering a job.
#[derive(Debug, Clone)]
pub struct JobCtx<'a> {
    /// The owning client.
    pub client: ClientId,
    /// Model name, the profile lookup key.
    pub model_name: &'a str,
    /// Batch size, the other half of the profile key.
    pub batch: u64,
    /// Weight for weighted-fair policies (≥ 1).
    pub weight: u32,
    /// Priority for priority policies (higher runs first).
    pub priority: u32,
    /// Which GPU the job's client is placed on (0 for single-GPU servers).
    /// Token schedulers keep one token per device.
    pub device: u32,
    /// Registration time.
    pub now: SimTime,
    /// Absolute completion deadline, when the client declared one.
    /// Deadline-aware policies order token grants by it; everyone else
    /// ignores it.
    pub deadline: Option<SimTime>,
}

/// Token movement reported by a scheduler call.
///
/// The engine uses this to account scheduling intervals and to apply the
/// gang wake-up latency to the newly granted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The token did not move.
    Unchanged,
    /// The token moved.
    Moved {
        /// Previous holder, if any.
        from: Option<JobId>,
        /// New holder, if any (none when the last job deregistered).
        to: Option<JobId>,
        /// Why the scheduler rotated the token — recorded in traces.
        reason: SwitchReason,
    },
}

/// A point-in-time sample of scheduler state, taken by the engine at each
/// telemetry snapshot boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerProbe {
    /// Jobs currently registered with the scheduler.
    pub active_jobs: u32,
    /// The token holder's `(cumulated, threshold)` cost units, for metering
    /// schedulers; `None` when nothing holds the token or the scheduler
    /// does not meter.
    pub holder_cost: Option<(u64, u64)>,
}

/// Registration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// The scheduler has no offline profile for this `(model, batch)` pair.
    /// Olympian refuses to run unprofiled models rather than falling back to
    /// unmetered execution.
    MissingProfile {
        /// Model name.
        model: String,
        /// Batch size.
        batch: u64,
    },
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::MissingProfile { model, batch } => {
                write!(f, "no offline profile for model {model:?} at batch {batch}")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// A GPU-usage scheduler plugged into the serving engine.
///
/// The engine calls these hooks from the exact points Algorithm 2 modifies
/// in TF-Serving's loop:
///
/// * [`register`](Scheduler::register) / [`deregister`](Scheduler::deregister)
///   around each `Session::Run`,
/// * [`may_run`](Scheduler::may_run) before executing *every* node — the
///   cooperative `yield()`; a `false` return parks the calling gang thread,
/// * [`on_gpu_node_done`](Scheduler::on_gpu_node_done) after each GPU node
///   completes — where cost accumulates and quanta expire,
/// * [`next_timer`](Scheduler::next_timer) / [`on_timer`](Scheduler::on_timer)
///   for wall-clock-quantum schedulers (the paper's Figure 19 ablation).
pub trait Scheduler: fmt::Debug + Send {
    /// Admits a job. May immediately grant it the token.
    ///
    /// # Errors
    ///
    /// Returns [`RegisterError`] if the scheduler cannot meter this job
    /// (e.g. no offline profile).
    fn register(&mut self, job: JobId, ctx: &JobCtx<'_>) -> Result<Verdict, RegisterError>;

    /// Removes a finished job. If it held the token, the scheduler must
    /// pass the token on.
    fn deregister(&mut self, job: JobId, now: SimTime) -> Verdict;

    /// The cooperative yield check: may this job's gang threads proceed?
    fn may_run(&self, job: JobId) -> bool;

    /// A GPU node of `job` finished; the scheduler accumulates its profiled
    /// cost and may rotate the token when the quantum threshold is crossed.
    fn on_gpu_node_done(&mut self, job: JobId, node: NodeId, now: SimTime) -> Verdict;

    /// Next instant at which [`on_timer`](Scheduler::on_timer) should fire,
    /// if this scheduler is timer-driven.
    fn next_timer(&self, now: SimTime) -> Option<SimTime> {
        let _ = now;
        None
    }

    /// Timer callback for timer-driven schedulers.
    fn on_timer(&mut self, now: SimTime) -> Verdict {
        let _ = now;
        Verdict::Unchanged
    }

    /// Metering state of a registered job, as `(cumulated, threshold)` cost
    /// units — the paper's `C_j` against `T_j`. Cost-metering schedulers
    /// override this so the engine can trace threshold crossings; the
    /// default (`None`) means the scheduler does not meter.
    fn cost_state(&self, job: JobId) -> Option<(u64, u64)> {
        let _ = job;
        None
    }

    /// Scheduler state sampled at telemetry snapshot boundaries. The
    /// default reports an empty probe; stateful schedulers override it so
    /// telemetry can publish active-job and holder-progress gauges.
    fn telemetry_probe(&self) -> SchedulerProbe {
        SchedulerProbe::default()
    }

    /// Human-readable name for reports.
    fn name(&self) -> &str;
}

/// The baseline scheduler: stock TF-Serving.
///
/// Every hook is a no-op — all jobs may always run, kernels from different
/// jobs interleave at the GPU driver's whim. This is the paper's baseline
/// in every experiment.
#[derive(Debug, Default)]
pub struct FifoScheduler;

impl FifoScheduler {
    /// Creates the baseline scheduler.
    pub fn new() -> Self {
        FifoScheduler
    }
}

impl Scheduler for FifoScheduler {
    fn register(&mut self, _job: JobId, _ctx: &JobCtx<'_>) -> Result<Verdict, RegisterError> {
        Ok(Verdict::Unchanged)
    }

    fn deregister(&mut self, _job: JobId, _now: SimTime) -> Verdict {
        Verdict::Unchanged
    }

    fn may_run(&self, _job: JobId) -> bool {
        true
    }

    fn on_gpu_node_done(&mut self, _job: JobId, _node: NodeId, _now: SimTime) -> Verdict {
        Verdict::Unchanged
    }

    fn name(&self) -> &str {
        "tf-serving"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_scheduler_never_blocks() {
        let mut s = FifoScheduler::new();
        let ctx = JobCtx {
            client: ClientId(0),
            model_name: "m",
            batch: 1,
            weight: 1,
            priority: 0,
            device: 0,
            now: SimTime::ZERO,
            deadline: None,
        };
        assert_eq!(s.register(JobId(1), &ctx).unwrap(), Verdict::Unchanged);
        assert!(s.may_run(JobId(1)));
        assert!(s.may_run(JobId(99)));
        assert_eq!(
            s.on_gpu_node_done(JobId(1), dataflow::NodeId::from_index(0), SimTime::ZERO),
            Verdict::Unchanged
        );
        assert_eq!(s.deregister(JobId(1), SimTime::ZERO), Verdict::Unchanged);
        assert_eq!(s.name(), "tf-serving");
    }

    #[test]
    fn register_error_displays() {
        let e = RegisterError::MissingProfile {
            model: "vgg".into(),
            batch: 32,
        };
        assert_eq!(
            e.to_string(),
            "no offline profile for model \"vgg\" at batch 32"
        );
    }

    #[test]
    fn register_error_round_trips_through_dyn_error() {
        let e = RegisterError::MissingProfile {
            model: "svc@v2".into(),
            batch: 4,
        };
        let display = e.to_string();
        let boxed: Box<dyn std::error::Error> = Box::new(e.clone());
        // A leaf error: displays identically through the trait object and
        // wraps no source.
        assert_eq!(boxed.to_string(), display);
        assert!(boxed.source().is_none());
        let back = boxed
            .downcast::<RegisterError>()
            .expect("downcasts to the concrete error");
        assert_eq!(*back, e);
    }
}
