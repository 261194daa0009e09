#![deny(missing_docs)]

//! Live telemetry for the serving stack: a deterministic online metrics
//! registry, an SLO burn-rate monitor and streaming drift detection.
//!
//! The trace layer records *what happened* for post-hoc timelines; this
//! crate watches the run *while it executes*, the way an operator would:
//! counters, gauges and log-linear histograms
//! ([`registry::MetricsRegistry`]) are folded from the engine's typed
//! [`TraceKind`] events ([`TelemetryHub::observe`]) — the same stream the
//! trace ring keeps, whatever the trace mode — and snapshotted at a fixed
//! **virtual-time** cadence, so two runs of the same experiment produce
//! byte-identical telemetry however the surrounding harness is
//! parallelized — the same guarantee the trace ring gives. The fold is
//! telemetry's only per-event input: the events carry the latencies, shed
//! causes and rollout details, and the hub is handed every client's and
//! deployment's name once, at construction. Replaying a lossless trace
//! through a fresh hub therefore reproduces the run's telemetry.
//!
//! On top of the registry sit two online health monitors:
//!
//! * [`slo::SloMonitor`] — per-model latency objectives with multi-window
//!   burn-rate alerting;
//! * [`drift::DriftDetector`] — EWMA/CUSUM over the stream of observed
//!   quantum lengths, raising re-profile alerts mid-run (§7 of the paper).
//!
//! Alerts surface twice: as [`Alert`] values in the finished
//! [`TelemetryReport`] (and hence the JSON-lines export) and — via the
//! engine, through [`Alert::trace_kind`] — as typed events in the trace
//! ring, so they land on the Perfetto timeline next to the quanta that
//! caused them.
//!
//! Cost discipline matches the tracer: with telemetry off the hub holds no
//! buffers and `observe` reduces to one predicted branch;
//! the engine's snapshot check is a single `t >= next_due()` compare
//! against `SimTime::MAX`.

use simtime::{SimDuration, SimTime};
use trace::TraceKind;

pub mod drift;
pub mod export;
pub mod registry;
pub mod slo;

pub use drift::{DriftConfig, DriftDetector, DriftSignal};
pub use export::{escape_help, escape_label, json_lines, prometheus_text};
pub use registry::{CounterId, GaugeId, HistogramId, HistogramSnapshot, MetricsRegistry};
pub use slo::{BurnSignal, BurnWindows, SloMonitor, SloSpec};

/// Telemetry configuration carried by the engine config.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch; everything below is ignored when false.
    pub enabled: bool,
    /// Virtual-time snapshot cadence.
    pub interval: SimDuration,
    /// Latency objectives, matched to clients by model name.
    pub slos: Vec<SloSpec>,
    /// Burn-rate window shape shared by all objectives.
    pub burn: BurnWindows,
    /// Streaming drift detection over observed quanta; one detector per
    /// client is cloned from this template.
    pub drift: Option<DriftConfig>,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            enabled: false,
            interval: SimDuration::from_micros(1000),
            slos: Vec::new(),
            burn: BurnWindows::default(),
            drift: None,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry disabled (the default).
    pub fn off() -> TelemetryConfig {
        TelemetryConfig::default()
    }

    /// Telemetry enabled at the given snapshot cadence.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enabled(interval: SimDuration) -> TelemetryConfig {
        assert!(interval > SimDuration::ZERO, "snapshot interval must be positive");
        TelemetryConfig { enabled: true, interval, ..TelemetryConfig::default() }
    }

    /// Adds a latency objective.
    pub fn with_slo(mut self, slo: SloSpec) -> TelemetryConfig {
        self.slos.push(slo);
        self
    }

    /// Overrides the burn-rate window shape.
    pub fn with_burn(mut self, burn: BurnWindows) -> TelemetryConfig {
        self.burn = burn;
        self
    }

    /// Enables streaming drift detection.
    pub fn with_drift(mut self, drift: DriftConfig) -> TelemetryConfig {
        self.drift = Some(drift);
        self
    }

    /// Whether anything is recorded.
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if enabled with a zero interval or an invalid window shape.
    pub fn validate(&self) {
        if !self.enabled {
            return;
        }
        assert!(self.interval > SimDuration::ZERO, "snapshot interval must be positive");
        self.burn.validate();
        if let Some(d) = &self.drift {
            drift::validate(d.expected_quantum, d.tolerance);
        }
    }
}

/// Gauge values the engine samples at each snapshot boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineGauges {
    /// Clients parked in the admission queue.
    pub queue_depth: u64,
    /// Idle threads in the inter-op pool.
    pub pool_idle: u64,
    /// Jobs in the starvation queue.
    pub starving: u64,
    /// Jobs currently registered with the scheduler.
    pub active_jobs: u64,
    /// Token holder's `(cumulated, threshold)` cost units, for metering
    /// schedulers.
    pub holder_cost: Option<(u64, u64)>,
    /// Weight bytes resident under the lifecycle manager (0 when the
    /// engine runs without one).
    pub resident_model_bytes: u64,
}

/// An alert raised by one of the online monitors.
#[derive(Debug, Clone, PartialEq)]
pub enum Alert {
    /// A client's offline profile was flagged stale mid-run.
    Drift {
        /// Virtual time of the detection.
        at: SimTime,
        /// The drifting client.
        client: u32,
        /// Smoothed observed quantum length, µs.
        observed_us: f64,
        /// Expected quantum length, µs.
        expected_us: f64,
        /// Relative deviation of the smoothed level.
        deviation: f64,
    },
    /// An SLO burn rate crossed its threshold.
    SloBurn {
        /// Virtual time of the crossing (a snapshot boundary).
        at: SimTime,
        /// Index of the objective in [`TelemetryConfig::slos`].
        slo: u32,
        /// Model the objective applies to.
        model: String,
        /// Burn rate over the short window.
        short_burn: f64,
        /// Burn rate over the long window.
        long_burn: f64,
    },
    /// The fault-recovery layer acted: a circuit breaker opened, a client
    /// was shed, or the token-hold watchdog revoked a stalled holder.
    FaultRecovery {
        /// Virtual time of the action.
        at: SimTime,
        /// The affected client.
        client: u32,
        /// What happened, kebab-case: `breaker-open`, `retries-exhausted`,
        /// `circuit-open` or `watchdog-revoke`.
        action: &'static str,
        /// Action-specific detail: stall µs for watchdog revocations,
        /// attempt count for sheds, 0 otherwise.
        detail: u64,
    },
    /// The lifecycle rollout controller decided a canary: the candidate
    /// version was promoted or rolled back.
    Rollout {
        /// Virtual time of the decision.
        at: SimTime,
        /// The served model name.
        model: String,
        /// The candidate version number (1-based).
        version: u32,
        /// `"promote"` or `"rollback"`.
        action: &'static str,
        /// Candidate mean run latency, µs (0 when superseded undecided).
        cand_us: u64,
        /// Incumbent mean run latency, µs (0 when superseded undecided).
        base_us: u64,
    },
}

impl Alert {
    /// Virtual time of the alert.
    pub fn at(&self) -> SimTime {
        match self {
            Alert::Drift { at, .. }
            | Alert::SloBurn { at, .. }
            | Alert::FaultRecovery { at, .. }
            | Alert::Rollout { at, .. } => *at,
        }
    }

    /// Stable kebab-case label.
    pub fn kind(&self) -> &'static str {
        match self {
            Alert::Drift { .. } => "drift",
            Alert::SloBurn { .. } => "slo-burn",
            Alert::FaultRecovery { .. } => "fault-recovery",
            Alert::Rollout { .. } => "rollout",
        }
    }

    /// The typed trace event that mirrors this alert onto the timeline,
    /// integer-encoded so the kind stays `Eq` (µs rounded, ratios in
    /// parts-per-million) — the inverse direction of
    /// [`TelemetryHub::observe`]. `None` for fault-recovery and rollout
    /// alerts: their action sites already record `BreakerTransition`,
    /// `WatchdogRevoke` and `CanaryPromote`/`CanaryRollback`, and a mirror
    /// would count them twice.
    pub fn trace_kind(&self) -> Option<TraceKind> {
        match *self {
            Alert::Drift { client, observed_us, expected_us, deviation, .. } => {
                Some(TraceKind::DriftAlert {
                    client,
                    observed_us: observed_us.round() as u64,
                    expected_us: expected_us.round() as u64,
                    deviation_ppm: (deviation * 1e6).round() as u64,
                })
            }
            Alert::SloBurn { slo, short_burn, long_burn, .. } => Some(TraceKind::SloBurnAlert {
                slo,
                short_ppm: (short_burn * 1e6).round() as u64,
                long_ppm: (long_burn * 1e6).round() as u64,
            }),
            Alert::FaultRecovery { .. } | Alert::Rollout { .. } => None,
        }
    }
}

/// The snapshot time series in struct-of-arrays layout: every boundary
/// appends into shared vectors, so the steady-state snapshot path is a
/// handful of `memcpy`s with only amortized growth — never fresh `Vec`
/// allocations per boundary. At the benchmark cadences (one snapshot per
/// 1 ms or 500 µs of virtual time) those allocations were the bulk of the
/// telemetry on-cost.
///
/// GPU shares are stored sparsely: a snapshot keeps only the clients whose
/// cumulative GPU time changed since the previous boundary, as ascending
/// `(client, gpu_ns)` pairs, plus the client-table length. A dense row
/// would copy every session ever seen into every snapshot, so an open-loop
/// run would grow as arrivals × snapshots. Dense rows are expanded at read
/// time by [`SnapshotCursor`]; the other columns are read in place through
/// [`SnapshotView`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotSeries {
    at: Vec<SimTime>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    hists: Vec<HistogramSnapshot>,
    /// Clients whose GPU time changed at a boundary, ascending within each
    /// snapshot, parallel to `gpu_ns`.
    gpu_client: Vec<u32>,
    /// The changed clients' new cumulative GPU nanoseconds.
    gpu_ns: Vec<u64>,
    /// Exclusive end offset into the change pairs per snapshot.
    gpu_end: Vec<u32>,
    /// Client-table length per snapshot: the width of its dense row. The
    /// table grows during a run, and a new row starts at zero.
    gpu_len: Vec<u32>,
    n_counters: u32,
    n_gauges: u32,
    n_hists: u32,
}

/// One registry snapshot, viewed in place; value slices are parallel to
/// the name lists in [`TelemetryReport`]. The snapshot's per-client GPU
/// shares are read through [`SnapshotSeries::cursor`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    /// Virtual time of the snapshot.
    pub at: SimTime,
    /// Counter values (cumulative).
    pub counters: &'a [u64],
    /// Gauge values.
    pub gauges: &'a [f64],
    /// Histogram summaries (cumulative).
    pub hists: &'a [HistogramSnapshot],
}

impl SnapshotSeries {
    /// Number of snapshots taken.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether no snapshot was taken.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The `i`-th snapshot, if taken.
    pub fn get(&self, i: usize) -> Option<SnapshotView<'_>> {
        if i >= self.at.len() {
            return None;
        }
        let (nc, ng, nh) =
            (self.n_counters as usize, self.n_gauges as usize, self.n_hists as usize);
        Some(SnapshotView {
            at: self.at[i],
            counters: &self.counters[i * nc..(i + 1) * nc],
            gauges: &self.gauges[i * ng..(i + 1) * ng],
            hists: &self.hists[i * nh..(i + 1) * nh],
        })
    }

    /// The final snapshot (totals at end of run), if any was taken.
    pub fn last(&self) -> Option<SnapshotView<'_>> {
        self.get(self.len().checked_sub(1)?)
    }

    /// Snapshots in time order.
    pub fn iter(&self) -> impl Iterator<Item = SnapshotView<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index in range"))
    }

    /// A cursor over the snapshots in time order that also yields each
    /// one's dense per-client GPU row.
    pub fn cursor(&self) -> SnapshotCursor<'_> {
        SnapshotCursor { series: self, next: 0, row: Vec::new() }
    }
}

/// A lending cursor over a [`SnapshotSeries`]: each step applies one
/// snapshot's GPU-share changes to a single reused buffer and lends it as
/// that snapshot's dense row, so reading every row costs the stored
/// changes plus one buffer, not a fresh `Vec` per snapshot.
#[derive(Debug)]
pub struct SnapshotCursor<'a> {
    series: &'a SnapshotSeries,
    next: usize,
    row: Vec<u64>,
}

impl<'a> SnapshotCursor<'a> {
    /// Moves to the next snapshot and returns it with its dense row:
    /// cumulative attributed GPU nanoseconds per client, indexed by client
    /// id. `None` past the last snapshot.
    pub fn advance(&mut self) -> Option<(SnapshotView<'a>, &[u64])> {
        let view = self.series.get(self.next)?;
        self.apply(self.next);
        self.next += 1;
        Some((view, &self.row))
    }

    /// Moves to the final snapshot and returns it with its dense row, or
    /// `None` if the cursor already passed it or the series is empty.
    pub fn advance_to_last(&mut self) -> Option<(SnapshotView<'a>, &[u64])> {
        while self.next + 1 < self.series.len() {
            self.apply(self.next);
            self.next += 1;
        }
        self.advance()
    }

    /// Applies snapshot `i`'s changes to the row, which holds snapshot
    /// `i - 1`'s dense row.
    fn apply(&mut self, i: usize) {
        let s = self.series;
        let start = if i == 0 { 0 } else { s.gpu_end[i - 1] as usize };
        let end = s.gpu_end[i] as usize;
        self.row.resize(s.gpu_len[i] as usize, 0);
        for (&c, &ns) in s.gpu_client[start..end].iter().zip(&s.gpu_ns[start..end]) {
            self.row[c as usize] = ns;
        }
    }
}

/// The exact per-run completion log in struct-of-arrays layout: one row
/// per completed run, in completion order. The registry's log-linear
/// latency histogram is cheap but lossy (bucket-midpoint quantiles); this
/// log is the loss-free stream the `tsdb` layer ingests so stored runs
/// reproduce nearest-rank quantiles — and blame deltas — exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    /// Completion time per run.
    pub at: Vec<SimTime>,
    /// Completing client per run.
    pub client: Vec<u32>,
    /// Registration-to-completion latency per run.
    pub latency: Vec<SimDuration>,
}

impl RunLog {
    /// Number of logged runs.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether no run was logged.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Rows as `(at, client, latency)`, completion order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u32, SimDuration)> + '_ {
        (0..self.len()).map(|i| (self.at[i], self.client[i], self.latency[i]))
    }
}

/// The finished telemetry of one run.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Whether telemetry was enabled (everything below is empty if not).
    pub enabled: bool,
    /// Snapshot cadence.
    pub interval: SimDuration,
    /// Run makespan (time of the final, possibly partial, snapshot).
    pub makespan: SimTime,
    /// Counter names, in registration order.
    pub counter_names: Vec<&'static str>,
    /// Gauge names.
    pub gauge_names: Vec<&'static str>,
    /// Histogram names.
    pub hist_names: Vec<&'static str>,
    /// Model name per client, indexed by client id.
    pub client_models: Vec<String>,
    /// The configured latency objectives.
    pub slos: Vec<SloSpec>,
    /// Snapshots in time order; the last one holds the final totals.
    pub snapshots: SnapshotSeries,
    /// Alerts in time order.
    pub alerts: Vec<Alert>,
    /// Exact per-run completion log, completion order.
    pub run_log: RunLog,
}

impl TelemetryReport {
    /// The expected snapshot count for a makespan: one per full interval
    /// plus a final partial one — `max(1, ceil(makespan / interval))`.
    pub fn expected_snapshots(&self) -> u64 {
        let m = self.makespan.as_nanos();
        let i = self.interval.as_nanos();
        m.div_ceil(i).max(1)
    }

    /// The final snapshot (totals at end of run), if telemetry ran.
    pub fn last(&self) -> Option<SnapshotView<'_>> {
        self.snapshots.last()
    }

    /// Final value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let i = self.counter_names.iter().position(|n| *n == name)?;
        Some(self.last()?.counters[i])
    }

    /// Final summary of a histogram by name.
    pub fn hist(&self, name: &str) -> Option<HistogramSnapshot> {
        let i = self.hist_names.iter().position(|n| *n == name)?;
        Some(self.last()?.hists[i])
    }
}

/// Metric handles, registered once at hub construction.
#[derive(Debug, Clone, Copy)]
struct Ids {
    c_admitted: CounterId,
    c_oom: CounterId,
    c_runs_started: CounterId,
    c_runs_completed: CounterId,
    c_deadline: CounterId,
    c_switches: CounterId,
    c_slo_breaches: CounterId,
    c_alerts_drift: CounterId,
    c_alerts_slo: CounterId,
    c_faults_kernel: CounterId,
    c_faults_alloc: CounterId,
    c_retries: CounterId,
    c_breaker_open: CounterId,
    c_shed: CounterId,
    c_watchdog: CounterId,
    c_versions_loaded: CounterId,
    c_versions_unloaded: CounterId,
    c_versions_evicted: CounterId,
    c_warmup_runs: CounterId,
    c_promotions: CounterId,
    c_rollbacks: CounterId,
    c_drains: CounterId,
    c_control_transitions: CounterId,
    c_admission_shed: CounterId,
    c_batch_shrinks: CounterId,
    c_profile_rebinds: CounterId,
    c_laxity_cancels: CounterId,
    c_cluster_routes: CounterId,
    c_cluster_migrations: CounterId,
    c_cluster_reconfigs: CounterId,
    g_queue: GaugeId,
    g_pool_idle: GaugeId,
    g_starving: GaugeId,
    g_active_jobs: GaugeId,
    g_holder_ratio: GaugeId,
    g_fairness: GaugeId,
    g_resident: GaugeId,
    h_quantum: HistogramId,
    h_handoff: HistogramId,
    h_latency: HistogramId,
}

/// One row of the per-client table; a row below the highest admitted
/// client stays default (unnamed) until its own client is admitted.
#[derive(Debug, Clone, Default)]
struct ClientState {
    /// The client's model, as an index into `TelemetryHub::names`.
    model: Option<u32>,
    slo: Option<u32>,
    drift: Option<DriftDetector>,
    gpu_ns: u64,
    /// `gpu_ns` as of the last snapshot boundary.
    snapped_ns: u64,
    /// Whether the client is on the hub's dirty list.
    dirty: bool,
}

impl ClientState {
    /// Puts client `id` (this row) on the hub's `dirty` list, once.
    fn mark_dirty(&mut self, id: u32, dirty: &mut Vec<u32>) {
        if !self.dirty {
            self.dirty = true;
            dirty.push(id);
        }
    }
}

/// The engine-side telemetry recorder: a fold over the engine's events.
///
/// [`observe`](TelemetryHub::observe) is the only per-event input;
/// [`tick`](TelemetryHub::tick) and [`finalize`](TelemetryHub::finalize)
/// add the engine's gauge samples at snapshot boundaries, and
/// [`reset_burn_latch`](TelemetryHub::reset_burn_latch) is the control
/// plane acknowledging a burn alert. Each is a no-op behind a single
/// predicted branch when telemetry is off; the snapshot cadence is driven
/// by the engine comparing event times against
/// [`next_due`](TelemetryHub::next_due), which is `SimTime::MAX` when off
/// so the hot loop pays exactly one compare.
#[derive(Debug)]
pub struct TelemetryHub {
    on: bool,
    interval: SimDuration,
    next_due: SimTime,
    registry: MetricsRegistry,
    ids: Option<Ids>,
    drift_template: Option<DriftConfig>,
    slo_specs: Vec<SloSpec>,
    monitors: Vec<SloMonitor>,
    /// Every model name the run can report, each once.
    names: Vec<String>,
    /// Each client's model, as an index into `names`.
    client_names: Vec<u32>,
    /// Each deployment's served name, as an index into `names`.
    deployment_names: Vec<u32>,
    clients: Vec<ClientState>,
    /// Clients whose GPU time may have moved since the last boundary, each
    /// once: the only rows a snapshot visits.
    dirty: Vec<u32>,
    /// The fairness gauge's checkpoints: entry `i` is the sequential fold
    /// of `(x, x²)` over the GPU shares of clients `0..=i` as of the last
    /// boundary. A boundary resumes the fold below its lowest changed
    /// client instead of redoing it over every session ever seen.
    share_fold: Vec<(f64, f64)>,
    snapshots: SnapshotSeries,
    alerts: Vec<Alert>,
    run_log: RunLog,
}

impl TelemetryHub {
    /// Creates a hub for a run whose clients serve `client_models` (by
    /// client id) and whose lifecycle plan declares `deployments` (by
    /// deployment index). The names label GPU shares, bind SLO objectives
    /// and name rollouts; they are read only when telemetry is on.
    /// Allocates nothing when telemetry is off.
    ///
    /// # Panics
    ///
    /// Panics on an invalid enabled configuration (see
    /// [`TelemetryConfig::validate`]).
    pub fn new<'a>(
        cfg: &TelemetryConfig,
        client_models: impl IntoIterator<Item = &'a str>,
        deployments: impl IntoIterator<Item = &'a str>,
    ) -> TelemetryHub {
        cfg.validate();
        let mut hub = TelemetryHub {
            on: false,
            interval: cfg.interval,
            next_due: SimTime::MAX,
            registry: MetricsRegistry::new(),
            ids: None,
            drift_template: None,
            slo_specs: Vec::new(),
            monitors: Vec::new(),
            names: Vec::new(),
            client_names: Vec::new(),
            deployment_names: Vec::new(),
            clients: Vec::new(),
            dirty: Vec::new(),
            share_fold: Vec::new(),
            snapshots: SnapshotSeries::default(),
            alerts: Vec::new(),
            run_log: RunLog::default(),
        };
        if !cfg.enabled {
            return hub;
        }
        let names = &mut hub.names;
        let mut intern = |name: &str| match names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                names.push(name.to_string());
                (names.len() - 1) as u32
            }
        };
        hub.client_names = client_models.into_iter().map(&mut intern).collect();
        hub.deployment_names = deployments.into_iter().map(&mut intern).collect();
        let mut registry = MetricsRegistry::new();
        let ids = Ids {
            c_admitted: registry.counter("clients_admitted"),
            c_oom: registry.counter("clients_rejected_oom"),
            c_runs_started: registry.counter("runs_started"),
            c_runs_completed: registry.counter("runs_completed"),
            c_deadline: registry.counter("runs_deadline_cancelled"),
            c_switches: registry.counter("token_switches"),
            c_slo_breaches: registry.counter("slo_breaches"),
            c_alerts_drift: registry.counter("alerts_drift"),
            c_alerts_slo: registry.counter("alerts_slo_burn"),
            c_faults_kernel: registry.counter("faults_kernel"),
            c_faults_alloc: registry.counter("faults_alloc"),
            c_retries: registry.counter("kernel_retries"),
            c_breaker_open: registry.counter("breaker_open_events"),
            c_shed: registry.counter("clients_shed"),
            c_watchdog: registry.counter("watchdog_revocations"),
            c_versions_loaded: registry.counter("versions_loaded"),
            c_versions_unloaded: registry.counter("versions_unloaded"),
            c_versions_evicted: registry.counter("versions_evicted"),
            c_warmup_runs: registry.counter("warmup_runs"),
            c_promotions: registry.counter("canary_promotions"),
            c_rollbacks: registry.counter("canary_rollbacks"),
            c_drains: registry.counter("drains_started"),
            c_control_transitions: registry.counter("control_transitions"),
            c_admission_shed: registry.counter("clients_admission_shed"),
            c_batch_shrinks: registry.counter("control_batch_shrinks"),
            c_profile_rebinds: registry.counter("control_profile_rebinds"),
            c_laxity_cancels: registry.counter("control_laxity_cancels"),
            c_cluster_routes: registry.counter("cluster_routes"),
            c_cluster_migrations: registry.counter("cluster_migrations"),
            c_cluster_reconfigs: registry.counter("cluster_reconfigs"),
            g_queue: registry.gauge("admission_queue_depth"),
            g_pool_idle: registry.gauge("pool_idle_threads"),
            g_starving: registry.gauge("starving_jobs"),
            g_active_jobs: registry.gauge("scheduler_active_jobs"),
            g_holder_ratio: registry.gauge("holder_cost_ratio"),
            g_fairness: registry.gauge("gpu_share_fairness"),
            g_resident: registry.gauge("resident_model_bytes"),
            h_quantum: registry.histogram("quantum_us"),
            h_handoff: registry.histogram("handoff_us"),
            h_latency: registry.histogram("run_latency_us"),
        };
        TelemetryHub {
            on: true,
            next_due: SimTime::ZERO + cfg.interval,
            registry,
            ids: Some(ids),
            drift_template: cfg.drift.clone(),
            slo_specs: cfg.slos.clone(),
            monitors: cfg.slos.iter().map(|s| SloMonitor::new(cfg.burn, s.budget)).collect(),
            ..hub
        }
    }

    /// Whether anything is recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Next snapshot boundary (`SimTime::MAX` when off) — the engine's
    /// one-branch hot-loop check.
    #[inline]
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    fn ids(&self) -> Ids {
        self.ids.expect("telemetry folded while off")
    }

    /// Acknowledges a burn alert on objective `slo`, resetting that
    /// monitor's rising-edge latch so a burn that persists through the
    /// control plane's countermeasure fires again at the next boundary.
    #[inline]
    pub fn reset_burn_latch(&mut self, slo: u32) {
        if !self.on {
            return;
        }
        if let Some(m) = self.monitors.get_mut(slo as usize) {
            m.reset_latch();
        }
    }

    /// Folds one engine event — the engine passes every event it records,
    /// whatever the trace mode — into the registry. It bumps the counter
    /// the kind stands for; binds a client's model and objective at
    /// `ClientAdmitted`; feeds `QuantumEnd` to the quantum histogram, the
    /// client's GPU share and its drift detector, a `RunCompleted` latency
    /// to the latency histogram, run log and SLO window, and a
    /// `KernelEnqueue` hand-off to the hand-off histogram. It raises the
    /// `fault-recovery` alert when a breaker opens, a client is shed or the
    /// watchdog revokes a holder, and the `rollout` alert at a canary
    /// decision. Returns the alert raised, if any. The two alert counters
    /// are bumped where their alert is raised (a burn inside the snapshot
    /// that raised it); the engine then records [`Alert::trace_kind`].
    #[inline]
    pub fn observe(&mut self, at: SimTime, kind: &TraceKind) -> Option<Alert> {
        if !self.on {
            return None;
        }
        self.fold(at, kind)
    }

    // Out of line: `observe` inlines into every engine record site, and
    // with telemetry off it must stay a single branch there.
    #[inline(never)]
    fn fold(&mut self, at: SimTime, kind: &TraceKind) -> Option<Alert> {
        // Borrowed, not copied: most events the engine records count
        // nothing, and the handle table is large.
        let ids = self.ids.as_ref().expect("telemetry folded while off");
        let counter = match *kind {
            TraceKind::QuantumEnd { client, gpu, .. } => {
                return self.observe_quantum(client, gpu, at);
            }
            TraceKind::KernelEnqueue { handoff: Some(latency), .. } => {
                self.registry.observe(ids.h_handoff, latency.as_nanos() / 1_000);
                return None;
            }
            TraceKind::ClientAdmitted { client, .. } => {
                self.registry.inc(ids.c_admitted, 1);
                self.bind(client);
                return None;
            }
            TraceKind::RunCompleted { client, latency, .. } => {
                self.registry.inc(ids.c_runs_completed, 1);
                self.observe_run(at, client, latency);
                return None;
            }
            TraceKind::BreakerTransition { client, state: "open", .. } => {
                self.registry.inc(ids.c_breaker_open, 1);
                let action = "breaker-open";
                return self.raise(Alert::FaultRecovery { at, client, action, detail: 0 });
            }
            TraceKind::BreakerTransition { client, shed: Some(cause), .. } => {
                self.registry.inc(ids.c_shed, 1);
                let (action, detail) = (cause.as_str(), u64::from(cause.count()));
                return self.raise(Alert::FaultRecovery { at, client, action, detail });
            }
            TraceKind::WatchdogRevoke { client, stalled_us, .. } => {
                self.registry.inc(ids.c_watchdog, 1);
                let action = "watchdog-revoke";
                return self.raise(Alert::FaultRecovery { at, client, action, detail: stalled_us });
            }
            TraceKind::CanaryPromote { model, version, cand_us, base_us }
            | TraceKind::CanaryRollback { model, version, cand_us, base_us } => {
                let (counter, action) = match kind {
                    TraceKind::CanaryPromote { .. } => (ids.c_promotions, "promote"),
                    _ => (ids.c_rollbacks, "rollback"),
                };
                self.registry.inc(counter, 1);
                let name = self.deployment_names[model as usize];
                let model = self.names[name as usize].clone();
                return self.raise(Alert::Rollout { at, model, version, action, cand_us, base_us });
            }
            TraceKind::TokenGrant { .. } => ids.c_switches,
            TraceKind::ClientRejectedOom { .. } => ids.c_oom,
            TraceKind::RunRegistered { .. } => ids.c_runs_started,
            TraceKind::DeadlineCancelled { .. } => ids.c_deadline,
            TraceKind::KernelFault { .. } => ids.c_faults_kernel,
            TraceKind::AllocFault { .. } => ids.c_faults_alloc,
            TraceKind::RetryScheduled { .. } => ids.c_retries,
            TraceKind::VersionLoad { .. } => ids.c_versions_loaded,
            TraceKind::WarmupRun { .. } => ids.c_warmup_runs,
            TraceKind::Evict { .. } => ids.c_versions_evicted,
            TraceKind::Unload { .. } => ids.c_versions_unloaded,
            TraceKind::Drain { .. } => ids.c_drains,
            TraceKind::ControlTransition { .. } => ids.c_control_transitions,
            TraceKind::AdmissionShed { .. } => ids.c_admission_shed,
            TraceKind::BatchShrink { .. } => ids.c_batch_shrinks,
            TraceKind::ProfileRebind { .. } => ids.c_profile_rebinds,
            TraceKind::LaxityCancel { .. } => ids.c_laxity_cancels,
            TraceKind::ClusterRoute { .. } => ids.c_cluster_routes,
            TraceKind::ClusterMigrate { .. } => ids.c_cluster_migrations,
            TraceKind::ClusterReconfig { .. } => ids.c_cluster_reconfigs,
            _ => return None,
        };
        self.registry.inc(counter, 1);
        None
    }

    /// Feeds one flushed quantum to the quantum histogram, the client's
    /// GPU share and its streaming drift detector. Returns a drift alert
    /// the first time that client's detector fires.
    fn observe_quantum(&mut self, client: u32, gpu: SimDuration, at: SimTime) -> Option<Alert> {
        let ids = self.ids();
        self.registry.observe(ids.h_quantum, gpu.as_nanos() / 1_000);
        let state = self.clients.get_mut(client as usize)?;
        state.gpu_ns += gpu.as_nanos();
        state.mark_dirty(client, &mut self.dirty);
        let signal = state.drift.as_mut()?.observe(gpu)?;
        self.registry.inc(ids.c_alerts_drift, 1);
        self.raise(Alert::Drift {
            at,
            client,
            observed_us: signal.observed_mean_us,
            expected_us: signal.expected_us,
            deviation: signal.deviation,
        })
    }

    fn raise(&mut self, alert: Alert) -> Option<Alert> {
        self.alerts.push(alert.clone());
        Some(alert)
    }

    /// Binds an admitted client to its model: the objective it is judged
    /// by, a fresh drift detector and the label of its GPU share. Grows the
    /// per-client table — the only allocation after construction, and only
    /// at client-arrival granularity.
    fn bind(&mut self, client: u32) {
        let (idx, name) = (client as usize, self.client_names[client as usize]);
        if self.clients.len() <= idx {
            self.clients.resize(idx + 1, ClientState::default());
        }
        let model = &self.names[name as usize];
        let state = &mut self.clients[idx];
        state.model = Some(name);
        state.slo = self.slo_specs.iter().position(|s| s.model == *model).map(|i| i as u32);
        state.drift = self.drift_template.clone().map(DriftDetector::new);
        // A re-admission restarts the client's GPU share.
        state.gpu_ns = 0;
        state.mark_dirty(client, &mut self.dirty);
    }

    /// Feeds one completed run's latency to the latency histogram, the
    /// exact run log and the owning model's SLO window.
    fn observe_run(&mut self, at: SimTime, client: u32, latency: SimDuration) {
        let ids = self.ids();
        self.registry.observe(ids.h_latency, latency.as_nanos() / 1_000);
        self.run_log.at.push(at);
        self.run_log.client.push(client);
        self.run_log.latency.push(latency);
        let Some(state) = self.clients.get(client as usize) else { return };
        if let Some(slo) = state.slo {
            let breach = latency > self.slo_specs[slo as usize].objective;
            if breach {
                self.registry.inc(ids.c_slo_breaches, 1);
            }
            self.monitors[slo as usize].observe(breach);
        }
    }

    fn snapshot_at(&mut self, at: SimTime, gauges: &EngineGauges, fired: &mut Vec<Alert>) {
        // Buffered histogram observations become visible at snapshot
        // boundaries — flush before anything below reads the registry.
        self.registry.flush();
        let ids = self.ids();
        self.registry.set_gauge(ids.g_queue, gauges.queue_depth as f64);
        self.registry.set_gauge(ids.g_pool_idle, gauges.pool_idle as f64);
        self.registry.set_gauge(ids.g_starving, gauges.starving as f64);
        self.registry.set_gauge(ids.g_active_jobs, gauges.active_jobs as f64);
        let ratio = match gauges.holder_cost {
            Some((c, t)) if t > 0 => c as f64 / t as f64,
            _ => 0.0,
        };
        self.registry.set_gauge(ids.g_holder_ratio, ratio);
        self.registry.set_gauge(ids.g_resident, gauges.resident_model_bytes as f64);
        let refold = self.snap_gpu_shares();
        let fairness = self.share_fairness(refold);
        self.registry.set_gauge(ids.g_fairness, fairness);

        // Rotate the SLO windows; burn alerts are stamped at the boundary
        // and counted inside this snapshot.
        for (i, m) in self.monitors.iter_mut().enumerate() {
            if let Some(sig) = m.rotate() {
                self.registry.inc(ids.c_alerts_slo, 1);
                let alert = Alert::SloBurn {
                    at,
                    slo: i as u32,
                    model: self.slo_specs[i].model.clone(),
                    short_burn: sig.short_burn,
                    long_burn: sig.long_burn,
                };
                self.alerts.push(alert.clone());
                fired.push(alert);
            }
        }

        // Append the row into the struct-of-arrays series: plain extends,
        // no per-snapshot allocation.
        let s = &mut self.snapshots;
        s.at.push(at);
        s.counters.extend_from_slice(self.registry.counter_values());
        s.gauges.extend_from_slice(self.registry.gauge_values());
        self.registry.snap_hists_into(&mut s.hists);
        s.n_counters = self.registry.counter_values().len() as u32;
        s.n_gauges = self.registry.gauge_values().len() as u32;
        s.n_hists = self.registry.hist_names().len() as u32;
    }

    /// Appends this boundary's GPU shares to the series: a `(client,
    /// gpu_ns)` pair for each dirty client whose share moved since the
    /// last boundary, in client order, and the client-table length.
    /// Returns the lowest row the fairness fold must redo: the lowest
    /// changed client, or the first row added since the last boundary
    /// (new rows start at zero, so they are not stored unless they moved).
    fn snap_gpu_shares(&mut self) -> usize {
        let s = &mut self.snapshots;
        let mut refold = self.share_fold.len();
        self.dirty.sort_unstable();
        for &c in &self.dirty {
            let state = &mut self.clients[c as usize];
            state.dirty = false;
            if state.gpu_ns != state.snapped_ns {
                state.snapped_ns = state.gpu_ns;
                s.gpu_client.push(c);
                s.gpu_ns.push(state.gpu_ns);
                refold = refold.min(c as usize);
            }
        }
        self.dirty.clear();
        s.gpu_end.push(s.gpu_client.len() as u32);
        s.gpu_len.push(self.clients.len() as u32);
        refold
    }

    /// Jain's fairness over every client's GPU share, bit-identical to
    /// `metrics::try_jain_fairness` over the dense row (neutral 1.0 while
    /// the table is empty): resumes the sequential fold at client `from`,
    /// the lowest row that changed since the checkpoints were taken.
    fn share_fairness(&mut self, from: usize) -> f64 {
        self.share_fold.truncate(from);
        let (mut sum, mut sum_sq) = self.share_fold.last().copied().unwrap_or((0.0, 0.0));
        for c in &self.clients[from..] {
            let x = c.gpu_ns as f64;
            sum += x;
            sum_sq += x * x;
            self.share_fold.push((sum, sum_sq));
        }
        // An idle window (no clients yet) has no squares: neutral 1.0.
        metrics::jain_from_sums(self.clients.len(), sum, sum_sq)
    }

    /// Emits every snapshot boundary due at or before `now`. The engine
    /// calls this from the event loop when `t >= next_due()`; any alerts
    /// fired at the boundaries are returned for recording into the trace.
    pub fn tick(&mut self, now: SimTime, gauges: &EngineGauges) -> Vec<Alert> {
        let mut fired = Vec::new();
        while self.next_due <= now {
            let at = self.next_due;
            self.snapshot_at(at, gauges, &mut fired);
            self.next_due = at + self.interval;
        }
        fired
    }

    /// Flushes the tail at end of run: remaining full boundaries, then one
    /// final (possibly partial) snapshot at `makespan` so the last window
    /// is never lost. Total snapshots = `max(1, ceil(makespan/interval))`.
    pub fn finalize(&mut self, makespan: SimTime, gauges: &EngineGauges) -> Vec<Alert> {
        if !self.on {
            return Vec::new();
        }
        let mut fired = self.tick(makespan, gauges);
        let partial = match self.snapshots.last() {
            Some(s) => s.at < makespan,
            None => true,
        };
        if partial {
            self.snapshot_at(makespan, gauges, &mut fired);
        }
        fired
    }

    /// Consumes the hub into its report.
    pub fn into_report(self, makespan: SimTime) -> TelemetryReport {
        let name = |c: &ClientState| match c.model {
            Some(m) => self.names[m as usize].clone(),
            None => String::new(),
        };
        TelemetryReport {
            enabled: self.on,
            interval: self.interval,
            makespan,
            counter_names: self.registry.counter_names().to_vec(),
            gauge_names: self.registry.gauge_names().to_vec(),
            hist_names: self.registry.hist_names().to_vec(),
            client_models: self.clients.iter().map(name).collect(),
            slos: self.slo_specs,
            snapshots: self.snapshots,
            alerts: self.alerts,
            run_log: self.run_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::{ShedCause, SwitchReason};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn t(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn quantum(client: u32, gpu_us: u64) -> TraceKind {
        TraceKind::QuantumEnd { job: 0, client, gpu: us(gpu_us) }
    }

    fn admitted(client: u32) -> TraceKind {
        TraceKind::ClientAdmitted { client, device: 0 }
    }

    fn completed(client: u32, latency_us: u64) -> TraceKind {
        TraceKind::RunCompleted { job: 0, client, latency: us(latency_us) }
    }

    #[test]
    fn off_hub_is_inert() {
        let mut h = TelemetryHub::new(&TelemetryConfig::off(), ["m"], ["m"]);
        assert!(!h.is_on());
        assert_eq!(h.next_due(), SimTime::MAX);
        assert_eq!(h.observe(t(0), &admitted(0)), None);
        assert_eq!(h.observe(t(10), &quantum(0, 100)), None);
        let open = TraceKind::BreakerTransition { client: 0, state: "open", shed: None };
        assert_eq!(h.observe(t(10), &open), None);
        let promote = TraceKind::CanaryPromote { model: 0, version: 2, cand_us: 1, base_us: 1 };
        assert_eq!(h.observe(t(20), &promote), None);
        assert_eq!(h.observe(t(50), &completed(0, 50)), None);
        assert!(h.tick(t(1_000_000), &EngineGauges::default()).is_empty());
        assert!(h.finalize(t(1_000_000), &EngineGauges::default()).is_empty());
        let r = h.into_report(t(1_000_000));
        assert!(!r.enabled);
        assert!(r.snapshots.is_empty());
    }

    #[test]
    fn snapshot_count_matches_interval_arithmetic() {
        let mut h = TelemetryHub::new(&TelemetryConfig::enabled(us(100)), ["m"], []);
        h.observe(t(0), &admitted(0));
        let g = EngineGauges::default();
        // Events at 250µs: boundaries 100 and 200 fire.
        assert!(h.tick(t(250), &g).is_empty());
        assert_eq!(h.snapshots.len(), 2);
        // Makespan 530µs: boundaries 300,400,500 plus the partial at 530.
        h.finalize(t(530), &g);
        let r = h.into_report(t(530));
        assert_eq!(r.snapshots.len(), 6);
        assert_eq!(r.expected_snapshots(), 6);
        assert_eq!(r.snapshots.last().unwrap().at, t(530));
        // Timestamps strictly increase.
        assert!(r
            .snapshots
            .iter()
            .zip(r.snapshots.iter().skip(1))
            .all(|(a, b)| a.at < b.at));
    }

    #[test]
    fn exact_multiple_makespan_has_no_partial_snapshot() {
        let mut h = TelemetryHub::new(&TelemetryConfig::enabled(us(100)), [], []);
        let g = EngineGauges::default();
        h.tick(t(300), &g);
        h.finalize(t(300), &g);
        let r = h.into_report(t(300));
        assert_eq!(r.snapshots.len(), 3);
        assert_eq!(r.expected_snapshots(), 3);
    }

    #[test]
    fn zero_makespan_still_emits_one_snapshot() {
        let mut h = TelemetryHub::new(&TelemetryConfig::enabled(us(100)), [], []);
        h.finalize(SimTime::ZERO, &EngineGauges::default());
        let r = h.into_report(SimTime::ZERO);
        assert_eq!(r.snapshots.len(), 1);
        assert_eq!(r.expected_snapshots(), 1);
    }

    #[test]
    fn counters_histograms_and_shares_accumulate() {
        let cfg = TelemetryConfig::enabled(us(100))
            .with_slo(SloSpec::new("m", us(500), 0.1));
        // Client 1 is never admitted, so its row stays unnamed.
        let mut h = TelemetryHub::new(&cfg, ["m", "m", "other"], []);
        for client in [0, 2] {
            h.observe(t(0), &admitted(client));
        }
        h.observe(t(0), &TraceKind::RunRegistered { job: 0, client: 0 });
        let reason = SwitchReason::Register;
        h.observe(t(0), &TraceKind::TokenGrant { job: 0, client: Some(0), reason });
        // Only the holder's first enqueue after the grant is a hand-off.
        for handoff in [Some(us(80)), None] {
            let enqueue =
                TraceKind::KernelEnqueue { job: 0, client: 0, device: 0, node: 0, handoff };
            h.observe(t(80), &enqueue);
        }
        assert!(h.observe(t(50), &quantum(0, 200)).is_none(), "no drift config");
        h.observe(t(60), &quantum(2, 100));
        // Client 0 breaches the 500µs objective; no SLO is bound to "other".
        for (client, latency) in [(0, 700), (2, 100)] {
            h.observe(t(latency), &completed(client, latency));
        }
        h.finalize(t(90), &EngineGauges { queue_depth: 2, ..Default::default() });
        let r = h.into_report(t(90));
        assert_eq!(r.counter("clients_admitted"), Some(2));
        assert_eq!(r.counter("runs_started"), Some(1));
        assert_eq!(r.counter("runs_completed"), Some(2));
        assert_eq!(r.counter("slo_breaches"), Some(1));
        assert_eq!(r.counter("token_switches"), Some(1));
        let q = r.hist("quantum_us").unwrap();
        assert_eq!((q.count, q.sum), (2, 300));
        let handoff = r.hist("handoff_us").unwrap();
        assert_eq!((handoff.count, handoff.sum), (1, 80));
        assert_eq!(r.run_log.latency, vec![us(700), us(100)]);
        let mut rows = r.snapshots.cursor();
        let (last, gpu) = rows.advance_to_last().unwrap();
        assert_eq!(gpu, [200_000, 0, 100_000]);
        let qd = r.gauge_names.iter().position(|n| *n == "admission_queue_depth").unwrap();
        assert_eq!(last.gauges[qd], 2.0);
        assert_eq!(r.client_models, vec!["m".to_string(), String::new(), "other".to_string()]);
    }

    #[test]
    fn shed_and_canary_events_raise_named_alerts() {
        let mut h = TelemetryHub::new(&TelemetryConfig::enabled(us(100)), ["a"], ["a", "b"]);
        let (state, shed) = ("shed", Some(ShedCause::CircuitOpen { trips: 3 }));
        let fault = h.observe(t(5), &TraceKind::BreakerTransition { client: 0, state, shed });
        let action = "circuit-open";
        assert_eq!(fault, Some(Alert::FaultRecovery { at: t(5), client: 0, action, detail: 3 }));
        let (version, cand_us, base_us) = (2, 90, 100);
        let promote = TraceKind::CanaryPromote { model: 1, version, cand_us, base_us };
        let (model, action) = ("b".to_string(), "promote");
        let expected = Alert::Rollout { at: t(9), model, version, action, cand_us, base_us };
        assert_eq!(h.observe(t(9), &promote), Some(expected));
        h.observe(t(9), &TraceKind::Unload { model: 1, version: 1, bytes: 64 });
        h.finalize(t(10), &EngineGauges::default());
        let r = h.into_report(t(10));
        for name in ["clients_shed", "canary_promotions", "versions_unloaded"] {
            assert_eq!(r.counter(name), Some(1), "{name}");
        }
        assert_eq!(r.alerts.len(), 2);
    }

    #[test]
    fn drift_and_slo_alerts_flow_into_the_report() {
        let cfg = TelemetryConfig::enabled(us(100))
            .with_slo(SloSpec::new("m", us(100), 0.1))
            .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
            .with_drift(DriftConfig::new(us(200), 0.1));
        let mut h = TelemetryHub::new(&cfg, ["m"], []);
        h.observe(t(0), &admitted(0));
        let g = EngineGauges::default();
        let mut drift_alerts = 0;
        for i in 0..10u64 {
            // Quanta 50% over target: drift fires once warm.
            if h.observe(t(i * 50 + 10), &quantum(0, 300)).is_some() {
                drift_alerts += 1;
            }
            // Every run breaches the 100µs objective.
            h.observe(t(400), &completed(0, 400));
            h.tick(t((i + 1) * 50), &g);
        }
        h.finalize(t(500), &g);
        assert_eq!(drift_alerts, 1);
        let r = h.into_report(t(500));
        assert_eq!(r.counter("alerts_drift"), Some(1));
        assert!(r.counter("alerts_slo_burn").unwrap() >= 1);
        assert!(r.alerts.iter().any(|a| a.kind() == "drift"));
        assert!(r.alerts.iter().any(|a| a.kind() == "slo-burn"));
        // Alerts are stamped in non-decreasing time order.
        assert!(r.alerts.windows(2).all(|w| w[0].at() <= w[1].at()));
    }
}
