//! Experiment output: everything the figure harness needs.

use crate::scheduler::ClientId;
use crate::telemetry::ModelName;
use simtime::{SimDuration, SimTime};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// How a client's session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOutcome {
    /// All batches completed; the finish time of the last one.
    Finished(SimTime),
    /// The client could not be admitted: its activations (or its model's
    /// weights) did not fit in GPU memory.
    RejectedOom {
        /// Bytes the admission attempt needed.
        requested: u64,
        /// Bytes that were free.
        available: u64,
    },
    /// The scheduler refused the client's jobs (e.g. missing profile).
    RejectedByScheduler(String),
    /// A `Session::Run` blew through its deadline; the job was cancelled
    /// and the session aborted at this instant.
    DeadlineExceeded(SimTime),
    /// Fault recovery gave up: a kernel (or admission) kept failing past
    /// the retry budget, so the session was shed at this instant.
    RetriesExhausted {
        /// When the session was shed.
        at: SimTime,
        /// Failed attempts accumulated on the operation that gave up.
        attempts: u32,
    },
    /// The client's circuit breaker spent its trip budget: persistent
    /// failures shed the session at this instant.
    CircuitOpen {
        /// When the session was shed.
        at: SimTime,
        /// Breaker trips accumulated before shedding.
        trips: u32,
    },
    /// The control plane's degradation ladder was in its Shedding state
    /// when the client arrived: admission was refused outright to protect
    /// the clients already inside their SLOs.
    AdmissionShed {
        /// When admission was refused.
        at: SimTime,
    },
    /// The run ended with this client unable to make progress (typically
    /// worker-thread starvation under gang-holding schedulers, §4.3).
    Stalled,
}

impl std::fmt::Display for ClientOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientOutcome::Finished(t) => write!(f, "finished at {t}"),
            ClientOutcome::RejectedOom { requested, available } => {
                write!(f, "rejected (OOM: needed {requested} B, {available} B free)")
            }
            ClientOutcome::RejectedByScheduler(why) => {
                write!(f, "rejected by scheduler ({why})")
            }
            ClientOutcome::DeadlineExceeded(t) => write!(f, "deadline exceeded at {t}"),
            ClientOutcome::RetriesExhausted { at, attempts } => {
                write!(f, "retries exhausted at {at} ({attempts} attempts)")
            }
            ClientOutcome::CircuitOpen { at, trips } => {
                write!(f, "circuit open at {at} ({trips} trips)")
            }
            ClientOutcome::AdmissionShed { at } => {
                write!(f, "admission shed at {at}")
            }
            ClientOutcome::Stalled => write!(f, "stalled"),
        }
    }
}

/// One client's entries of a run-wide report column. The engine logs
/// every completed run in buffers shared by the whole run and groups them
/// by client in place at the end, so all clients' views share one column.
/// A view derefs to the client's slice, and compares and prints `Debug`
/// exactly as a `Vec` of the same entries.
#[derive(Clone)]
pub struct ColumnView<T> {
    column: Arc<Vec<T>>,
    start: u32,
    end: u32,
}

impl<T> ColumnView<T> {
    /// Entries `start..end` of a shared column.
    fn new(column: &Arc<Vec<T>>, start: u32, end: u32) -> Self {
        debug_assert!(start <= end && end as usize <= column.len(), "view out of its column");
        ColumnView { column: Arc::clone(column), start, end }
    }
}

impl<T> Deref for ColumnView<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.column[self.start as usize..self.end as usize]
    }
}

impl<'a, T> IntoIterator for &'a ColumnView<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A view of its own column, holding exactly `entries`.
impl<T> From<Vec<T>> for ColumnView<T> {
    fn from(entries: Vec<T>) -> Self {
        let end = u32::try_from(entries.len()).expect("a column fits u32 indices");
        ColumnView { column: Arc::new(entries), start: 0, end }
    }
}

impl<T: fmt::Debug> fmt::Debug for ColumnView<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: PartialEq> PartialEq for ColumnView<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for ColumnView<T> {}

/// Every completed run of an engine, in completion order: its client,
/// where its quanta end in `quanta`, its finish time, its GPU time and its
/// quanta. The buffers serve the whole run, so a run costs their amortized
/// growth and no buffer of its own; [`RunLog::into_columns`] turns them
/// into the report's shared columns.
#[derive(Default)]
pub(crate) struct RunLog {
    runs: Vec<(ClientId, u32)>,
    finish: Vec<SimTime>,
    gpu: Vec<SimDuration>,
    quanta: Vec<(SimTime, SimDuration)>,
}

impl RunLog {
    /// Logs a completed run of `client` and the quanta it received.
    pub(crate) fn push(
        &mut self,
        client: ClientId,
        finish: SimTime,
        gpu: SimDuration,
        quanta: &[(SimTime, SimDuration)],
    ) {
        self.quanta.extend_from_slice(quanta);
        self.runs.push((client, self.quanta.len() as u32));
        self.finish.push(finish);
        self.gpu.push(gpu);
    }

    /// Groups the log by client for `n` clients, in place, keeping each
    /// client's runs and quanta in completion order. A stable counting
    /// sort gives each run and quantum its place; the columns move there
    /// and give back their growth slack, as they are final.
    pub(crate) fn into_columns(mut self, n: usize) -> RunColumns {
        let (mut run_at, mut quanta_at) = (vec![0u32; n + 1], vec![0u32; n + 1]);
        let mut begin = 0;
        for &(c, end) in &self.runs {
            run_at[c.0 as usize + 1] += 1;
            quanta_at[c.0 as usize + 1] += end - begin;
            begin = end;
        }
        for c in 0..n {
            run_at[c + 1] += run_at[c];
            quanta_at[c + 1] += quanta_at[c];
        }
        // Each run's place in client order, and its first quantum's.
        let (mut next_run, mut next_quantum) = (run_at[..n].to_vec(), quanta_at[..n].to_vec());
        let mut begin = 0;
        let to: Vec<(u32, u32)> = (self.runs.iter())
            .map(|&(c, end)| {
                let c = c.0 as usize;
                let to = (next_run[c], next_quantum[c]);
                next_run[c] += 1;
                next_quantum[c] += end - begin;
                begin = end;
                to
            })
            .collect();
        permute(&mut self.finish, |r| to[r].0 as usize);
        permute(&mut self.gpu, |r| to[r].0 as usize);
        let runs = &self.runs;
        permute(&mut self.quanta, |q| {
            let r = runs.partition_point(|&(_, end)| end as usize <= q);
            let first = r.checked_sub(1).map_or(0, |p| runs[p].1 as usize);
            to[r].1 as usize + (q - first)
        });
        fn column<T>(mut v: Vec<T>) -> Arc<Vec<T>> {
            v.shrink_to_fit();
            Arc::new(v)
        }
        RunColumns {
            finish: column(self.finish),
            gpu: column(self.gpu),
            quanta: column(self.quanta),
            run_at,
            quanta_at,
        }
    }
}

/// Moves each `v[i]` to `v[to(i)]` in place; `to` must permute `v`'s
/// indices. Each cycle of the permutation is rotated through `v[start]`.
fn permute<T>(v: &mut [T], to: impl Fn(usize) -> usize) {
    let mut placed = vec![false; v.len()];
    for start in 0..v.len() {
        if placed[start] {
            continue;
        }
        // `v[start]` holds the entry that was at `from`; swap it home.
        let mut from = start;
        while to(from) != start {
            let home = to(from);
            v.swap(start, home);
            placed[home] = true;
            from = home;
        }
        placed[start] = true;
    }
}

/// A run log grouped by client: one shared column per report field, and
/// where each client's entries start in them (client `c`'s runs are
/// `run_at[c]..run_at[c + 1]`).
pub(crate) struct RunColumns {
    finish: Arc<Vec<SimTime>>,
    gpu: Arc<Vec<SimDuration>>,
    quanta: Arc<Vec<(SimTime, SimDuration)>>,
    run_at: Vec<u32>,
    quanta_at: Vec<u32>,
}

/// One client's views: its runs' finish times and GPU times, and its
/// quanta.
type ClientColumns =
    (ColumnView<SimTime>, ColumnView<SimDuration>, ColumnView<(SimTime, SimDuration)>);

impl RunColumns {
    /// Client `c`'s views.
    pub(crate) fn client(&self, c: usize) -> ClientColumns {
        let (first_run, end_run) = (self.run_at[c], self.run_at[c + 1]);
        let (first_quantum, end_quantum) = (self.quanta_at[c], self.quanta_at[c + 1]);
        (
            ColumnView::new(&self.finish, first_run, end_run),
            ColumnView::new(&self.gpu, first_run, end_run),
            ColumnView::new(&self.quanta, first_quantum, end_quantum),
        )
    }
}

/// Per-client results.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// The client.
    pub client: ClientId,
    /// Model name it queried, shared with every other label of the model.
    pub model_name: ModelName,
    /// Batch size.
    pub batch: u64,
    /// How the session ended.
    pub outcome: ClientOutcome,
    /// Finish time of each completed `Session::Run`.
    pub run_finish_times: ColumnView<SimTime>,
    /// GPU duration of each completed run (the paper's per-run `D_j`).
    pub run_gpu_durations: ColumnView<SimDuration>,
    /// Completed quanta as `(end time, GPU duration received)`, across the
    /// whole session (Figures 14/16). One per run under the baseline
    /// scheduler, whose runs are never switched out. A cancelled run's
    /// quanta are not reported.
    pub quantum_marks: ColumnView<(SimTime, SimDuration)>,
    /// Total GPU busy time attributed to the client.
    pub total_gpu: SimDuration,
}

impl ClientReport {
    /// Whether the client finished all batches.
    pub fn is_finished(&self) -> bool {
        matches!(self.outcome, ClientOutcome::Finished(_))
    }

    /// Finish time of the whole session.
    ///
    /// # Panics
    ///
    /// Panics if the client did not finish; check [`is_finished`][Self::is_finished] first.
    pub fn finish_time(&self) -> SimTime {
        match self.outcome {
            ClientOutcome::Finished(t) => t,
            ref other => panic!("client {} did not finish: {other}", self.client),
        }
    }

    /// Mean per-quantum GPU duration in microseconds, dropping the first and
    /// last quantum of the session (ramp-up and final partial quantum), as
    /// the paper averages "while all jobs are active". Returns `None` when
    /// fewer than three quanta were observed.
    pub fn mean_quantum_us(&self) -> Option<f64> {
        let q = &self.quantum_marks;
        if q.len() < 3 {
            return None;
        }
        let inner = &q[1..q.len() - 1];
        Some(inner.iter().map(|(_, d)| d.as_micros_f64()).sum::<f64>() / inner.len() as f64)
    }

    /// Per-quantum GPU durations in µs, trimmed as in
    /// [`mean_quantum_us`](Self::mean_quantum_us).
    pub fn trimmed_quanta_us(&self) -> Vec<f64> {
        let q = &self.quantum_marks;
        if q.len() < 3 {
            return Vec::new();
        }
        q[1..q.len() - 1].iter().map(|(_, d)| d.as_micros_f64()).collect()
    }

    /// Total GPU duration received in quanta that completed by `horizon` —
    /// the windowed share measurement behind the weighted-sharing analyses.
    pub fn gpu_received_by(&self, horizon: SimTime) -> SimDuration {
        self.quantum_marks
            .iter()
            .filter(|&&(t, _)| t <= horizon)
            .map(|&(_, d)| d)
            .sum()
    }
}

/// Whole-run results.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// One report per client, in client-id order.
    pub clients: Vec<ClientReport>,
    /// When the last client finished (or the run stalled).
    pub makespan: SimTime,
    /// Mean GPU busy fraction over `[0, makespan]` across all devices.
    pub utilization: f64,
    /// Per-device busy fractions (length = number of simulated GPUs).
    pub device_utilizations: Vec<f64>,
    /// Wall durations between consecutive token movements (Figure 12).
    /// Empty under the baseline scheduler.
    pub scheduling_intervals: Vec<SimDuration>,
    /// Number of token movements.
    pub switch_count: u64,
    /// Number of GPU kernels executed.
    pub kernel_count: u64,
    /// Number of simulation events processed.
    pub event_count: u64,
    /// Name of the scheduler that ran.
    pub scheduler_name: String,
    /// Peak GPU memory usage in bytes.
    pub peak_memory: u64,
    /// Structured execution trace; empty unless
    /// [`EngineConfig::trace`](crate::EngineConfig::trace) enabled capture.
    pub trace: crate::trace::Trace,
    /// Live telemetry: snapshots and alerts; empty unless
    /// [`EngineConfig::telemetry`](crate::EngineConfig::telemetry) enabled
    /// capture.
    pub telemetry: crate::telemetry::TelemetryReport,
}

impl RunReport {
    /// Finish times (seconds) of all finished clients, in client order.
    pub fn finish_times_secs(&self) -> Vec<f64> {
        self.clients
            .iter()
            .filter(|c| c.is_finished())
            .map(|c| c.finish_time().as_secs_f64())
            .collect()
    }

    /// Number of clients that finished.
    pub fn finished_count(&self) -> usize {
        self.clients.iter().filter(|c| c.is_finished()).count()
    }

    /// Whether every client finished.
    pub fn all_finished(&self) -> bool {
        self.finished_count() == self.clients.len()
    }

    /// Track metadata for the Chrome-trace exporter: one track per client
    /// (labelled `clientN (model)`) plus one per GPU device.
    pub fn trace_meta(&self) -> crate::trace::TraceMeta {
        crate::trace::TraceMeta {
            client_labels: self
                .clients
                .iter()
                .map(|c| format!("{} ({})", c.client, c.model_name))
                .collect(),
            device_count: self.device_utilizations.len() as u32,
        }
    }

    /// The run's trace as Chrome trace-event JSON, loadable in Perfetto or
    /// `chrome://tracing`. Meaningful only when the run captured a trace.
    pub fn chrome_trace_json(&self) -> String {
        crate::trace::chrome_trace_json(&self.trace, &self.trace_meta(), |_| {})
    }

    /// Decomposes every traced run into latency phases that tile its span
    /// exactly. `horizon` is the hand-off window charged after each token
    /// grant — pass the engine's `switch_latency + launch_overhead`.
    /// Meaningful only when the run captured a trace.
    pub fn attribution(&self, horizon: SimDuration) -> crate::attrib::Attribution {
        crate::attrib::Attribution::from_trace(&self.trace, horizon.as_nanos())
    }

    /// Chrome trace-event JSON with the attribution's phase slices and
    /// highlighted critical path appended as a third process, next to the
    /// client and GPU tracks the plain export carries.
    pub fn chrome_trace_json_with_phases(
        &self,
        attr: &crate::attrib::Attribution,
        path: &crate::attrib::CriticalPath,
    ) -> String {
        crate::trace::chrome_trace_json(&self.trace, &self.trace_meta(), |w| {
            crate::attrib::write_phase_events(attr, path, w)
        })
    }

    /// The run's telemetry as a JSON-lines time series (one self-describing
    /// document per line). Meaningful only when the run captured telemetry.
    pub fn telemetry_jsonl(&self) -> String {
        crate::telemetry::json_lines(&self.telemetry)
    }

    /// The run's final telemetry state as Prometheus text exposition
    /// (version 0.0.4). Empty when the run captured no telemetry.
    pub fn prometheus_text(&self) -> String {
        crate::telemetry::prometheus_text(&self.telemetry)
    }

    /// The run's telemetry ingested into an embedded time-series store:
    /// every counter/gauge/histogram-digest snapshot, per-client GPU
    /// time, the exact per-run latency log and the alert stream, ready
    /// for range/rate/quantile queries, catalog persistence and
    /// dashboards. Empty when the run captured no telemetry.
    pub fn tsdb(&self) -> crate::tsdb::Store {
        crate::tsdb::Store::from_telemetry(&self.telemetry)
    }

    /// Mean scheduling-interval duration in milliseconds, if any.
    pub fn mean_interval_ms(&self) -> Option<f64> {
        if self.scheduling_intervals.is_empty() {
            return None;
        }
        Some(
            self.scheduling_intervals
                .iter()
                .map(|d| d.as_millis_f64())
                .sum::<f64>()
                / self.scheduling_intervals.len() as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_quanta(q: Vec<u64>) -> ClientReport {
        ClientReport {
            client: ClientId(0),
            model_name: "m".into(),
            batch: 1,
            outcome: ClientOutcome::Finished(SimTime::from_millis(1)),
            run_finish_times: Vec::new().into(),
            run_gpu_durations: Vec::new().into(),
            quantum_marks: q
                .into_iter()
                .enumerate()
                .map(|(i, d)| (SimTime::from_micros(i as u64), SimDuration::from_micros(d)))
                .collect::<Vec<_>>()
                .into(),
            total_gpu: SimDuration::ZERO,
        }
    }

    #[test]
    fn mean_quantum_trims_first_and_last() {
        let r = report_with_quanta(vec![5, 100, 120, 110, 7]);
        assert!((r.mean_quantum_us().unwrap() - 110.0).abs() < 1e-9);
        assert_eq!(r.trimmed_quanta_us().len(), 3);
    }

    #[test]
    fn mean_quantum_needs_three() {
        assert_eq!(report_with_quanta(vec![5, 6]).mean_quantum_us(), None);
        assert!(report_with_quanta(vec![1, 2]).trimmed_quanta_us().is_empty());
    }

    #[test]
    fn a_view_reads_compares_and_prints_like_the_vec_it_replaces() {
        let column = Arc::new(vec![1u64, 2, 3, 4, 5]);
        let view = ColumnView::new(&column, 1, 4);
        let owned = vec![2u64, 3, 4];
        assert_eq!(*view, owned[..]);
        assert_eq!(format!("{view:?}"), format!("{owned:?}"));
        assert_eq!(format!("{view:#?}"), format!("{owned:#?}"));
        assert_eq!((&view).into_iter().copied().collect::<Vec<_>>(), owned);
        assert_eq!(view, ColumnView::from(owned));
        let empty = ColumnView::new(&column, 5, 5);
        assert_eq!(format!("{empty:?}"), format!("{:?}", Vec::<u64>::new()));
        assert_eq!(empty, ColumnView::from(Vec::new()));
    }

    #[test]
    fn run_log_groups_each_client_in_completion_order() {
        let mut rng = simtime::DetRng::new(0x106);
        for case in 0..64 {
            let n = rng.range_u64(1, 12) as usize;
            type Runs = (Vec<SimTime>, Vec<SimDuration>, Vec<(SimTime, SimDuration)>);
            let mut want: Vec<Runs> = vec![Default::default(); n];
            let mut log = RunLog::default();
            for run in 0..rng.range_u64(0, 80) {
                let c = rng.range_u64(0, n as u64) as usize;
                let (finish, gpu) = (SimTime::from_nanos(run), SimDuration::from_nanos(run * 3));
                let quanta: Vec<(SimTime, SimDuration)> = (0..rng.range_u64(0, 5))
                    .map(|k| (SimTime::from_nanos(run), SimDuration::from_nanos(k)))
                    .collect();
                log.push(ClientId(c as u32), finish, gpu, &quanta);
                want[c].0.push(finish);
                want[c].1.push(gpu);
                want[c].2.extend(quanta);
            }
            let columns = log.into_columns(n);
            for (c, (finish, gpu, marks)) in want.into_iter().enumerate() {
                let want = (finish.into(), gpu.into(), marks.into());
                assert_eq!(columns.client(c), want, "case {case}, client {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "did not finish")]
    fn finish_time_of_stalled_panics() {
        let mut r = report_with_quanta(vec![]);
        r.outcome = ClientOutcome::Stalled;
        let _ = r.finish_time();
    }
}
