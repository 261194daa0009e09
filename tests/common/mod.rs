//! Checks shared by the integration tests.

use controlplane::CostOracle;
use olympian::{ProfileStore, StoreCostOracle};
use serving::RunReport;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use trace::{BreakerEdge, TraceKind};

/// 64-bit FNV-1a of a rendering, as 16 hex digits: how the tests pin an
/// export's bytes.
#[allow(dead_code)] // Not every test binary pins an export.
pub fn fnv1a(s: &str) -> String {
    let hash = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Forwards the two required `CostOracle` methods to the store's own
/// oracle and counts the laxity lookups. It leaves `epoch` at its default,
/// `None`, so the control loop walks every live run on every tick and asks
/// nothing when a run registers.
#[allow(dead_code)] // Only the tests that bind a cost oracle build one.
#[derive(Debug)]
pub struct Uncached {
    pub store: Arc<StoreCostOracle>,
    pub lookups: AtomicU64,
}

#[allow(dead_code)]
impl Uncached {
    pub fn new(store: Arc<ProfileStore>) -> Uncached {
        Uncached { store: StoreCostOracle::new(store), lookups: AtomicU64::new(0) }
    }
}

impl CostOracle for Uncached {
    fn expected_gpu_ns(&self, model: &str, batch: u64) -> Option<u64> {
        self.lookups.fetch_add(1, Relaxed);
        self.store.expected_gpu_ns(model, batch)
    }

    fn rebind_scaled(&self, model: &str, batch: u64, scale_ppm: u64) -> bool {
        self.store.rebind_scaled(model, batch, scale_ppm)
    }
}

/// Whether an event is one a counter counts.
type Counts = fn(&TraceKind) -> bool;

/// Each telemetry counter that stands for a trace event, with the event it
/// counts. Written out here rather than derived from the telemetry fold,
/// so a wrong arm in the fold shows up as a mismatch.
const PAIRED: [(&str, Counts); 29] = [
    ("clients_admitted", |k| matches!(k, TraceKind::ClientAdmitted { .. })),
    ("clients_rejected_oom", |k| matches!(k, TraceKind::ClientRejectedOom { .. })),
    ("runs_started", |k| matches!(k, TraceKind::RunRegistered { .. })),
    ("runs_completed", |k| matches!(k, TraceKind::RunCompleted { .. })),
    ("runs_deadline_cancelled", |k| matches!(k, TraceKind::DeadlineCancelled { .. })),
    ("token_switches", |k| matches!(k, TraceKind::TokenGrant { .. })),
    ("alerts_drift", |k| matches!(k, TraceKind::DriftAlert { .. })),
    ("alerts_slo_burn", |k| matches!(k, TraceKind::SloBurnAlert { .. })),
    ("faults_kernel", |k| matches!(k, TraceKind::KernelFault { .. })),
    ("faults_alloc", |k| matches!(k, TraceKind::AllocFault { .. })),
    // Kernel and admission retries alike.
    ("kernel_retries", |k| matches!(k, TraceKind::RetryScheduled { .. })),
    ("breaker_open_events", |k| {
        matches!(k, TraceKind::BreakerTransition { to: BreakerEdge::Open, .. })
    }),
    ("clients_shed", |k| {
        matches!(k, TraceKind::BreakerTransition { to: BreakerEdge::Shed(_), .. })
    }),
    ("watchdog_revocations", |k| matches!(k, TraceKind::WatchdogRevoke { .. })),
    ("versions_loaded", |k| matches!(k, TraceKind::VersionLoad { .. })),
    ("versions_unloaded", |k| matches!(k, TraceKind::Unload { .. })),
    ("versions_evicted", |k| matches!(k, TraceKind::Evict { .. })),
    ("warmup_runs", |k| matches!(k, TraceKind::WarmupRun { .. })),
    ("canary_promotions", |k| matches!(k, TraceKind::CanaryPromote { .. })),
    ("canary_rollbacks", |k| matches!(k, TraceKind::CanaryRollback { .. })),
    ("drains_started", |k| matches!(k, TraceKind::Drain { .. })),
    ("control_transitions", |k| matches!(k, TraceKind::ControlTransition { .. })),
    ("clients_admission_shed", |k| matches!(k, TraceKind::AdmissionShed { .. })),
    ("control_batch_shrinks", |k| matches!(k, TraceKind::BatchShrink { .. })),
    ("control_profile_rebinds", |k| matches!(k, TraceKind::ProfileRebind { .. })),
    ("control_laxity_cancels", |k| matches!(k, TraceKind::LaxityCancel { .. })),
    ("cluster_routes", |k| matches!(k, TraceKind::ClusterRoute { .. })),
    ("cluster_migrations", |k| matches!(k, TraceKind::ClusterMigrate { .. })),
    ("cluster_reconfigs", |k| matches!(k, TraceKind::ClusterReconfig { .. })),
];

/// The counters no trace event stands for, and why.
const UNPAIRED: [(&str, &str); 1] = [(
    "slo_breaches",
    "a breach compares a run's latency to the objective its model is bound to",
)];

/// Requires every telemetry counter that stands for a trace event to equal
/// the number of those events in `report.trace`, and every registered
/// counter to be on one of the two lists above. The report needs telemetry
/// on and a trace that dropped nothing; the counted kinds are all recorded
/// in `Sampled` mode. Also requires the trace's instants never to decrease
/// along `seq`: an alert's reactions are stamped at the alert's instant,
/// not at the event that happened to follow its snapshot boundary.
pub fn assert_counters_match_trace(report: &RunReport) {
    let t = &report.telemetry;
    assert!(t.enabled, "telemetry is off: nothing to compare");
    assert!(!report.trace.is_empty(), "tracing is off: nothing to count");
    assert_eq!(report.trace.dropped, 0, "a truncated trace cannot be recounted");
    for w in report.trace.events.windows(2) {
        assert!(w[0].at <= w[1].at, "trace runs backwards in time: {:?} then {:?}", w[0], w[1]);
    }
    for name in &t.counter_names {
        assert!(
            PAIRED.iter().any(|(n, _)| n == name) || UNPAIRED.iter().any(|(n, _)| n == name),
            "counter {name} is neither paired with a trace event nor listed as unpaired"
        );
    }
    for (name, counts) in PAIRED {
        let counter = t.counter(name).unwrap_or_else(|| panic!("counter {name} is not registered"));
        let events = report.trace.filter(counts).count() as u64;
        assert_eq!(counter, events, "counter {name} disagrees with the trace");
    }
}
