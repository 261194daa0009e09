//! The `overhead` report: the paper's "<2% scheduling overhead" claim as a
//! checked number.
//!
//! The paper's contract is the Overhead-Q curve: an operator states an
//! overhead tolerance, the profiler maps it to a quantum, and the realized
//! overhead honors the tolerance. This report runs the Figure 11 workload
//! (10 Inception clients) twice under full tracing — once under the
//! TF-Serving baseline (no scheduling) and once under Olympian fair sharing
//! with Q chosen for the paper's 2% bound — and checks the realized
//! overhead, measured the way the paper measures it: makespan inflation
//! over the unscheduled baseline.
//!
//! The trace provides the decomposition behind the number: every token
//! hand-off opens a window (switch latency + launch overhead) after the
//! grant, and the report attributes to the scheduler exactly the device
//! idle falling inside those windows. Overflowed kernels from the previous
//! holder mask part of them — the very mechanism the paper credits for the
//! low overhead.

use crate::figs::{fair, Claim, Figure};
use crate::{
    banner, build_store_for, choose_q, default_config, homogeneous_clients, DEFAULT_BATCH,
    DEFAULT_NUM_BATCHES,
};
use models::ModelKind;
use serving::{run_experiment, FifoScheduler, TraceConfig};
use trace::TraceStats;

/// The paper's claimed bound on scheduling overhead, doubling as the
/// operator tolerance handed to the Overhead-Q curve.
pub const OVERHEAD_BOUND: f64 = 0.02;

/// Counters for the two Figure 11 runs: the unscheduled baseline and
/// Olympian fair sharing at the 2%-tolerance quantum.
pub struct OverheadStats {
    /// Snapshot of the TF-Serving baseline run.
    pub baseline: TraceStats,
    /// Snapshot of the Olympian fair-sharing run.
    pub olympian: TraceStats,
    /// The quantum the Overhead-Q curve chose for [`OVERHEAD_BOUND`], in µs.
    pub q_us: f64,
}

impl OverheadStats {
    /// Realized scheduling overhead: makespan inflation over the
    /// unscheduled baseline — the paper's definition.
    pub fn realized_overhead(&self) -> f64 {
        (self.olympian.makespan_us - self.baseline.makespan_us) / self.baseline.makespan_us
    }
}

/// Runs the Figure 11 workload under the baseline and under Olympian with
/// full tracing, returning both counter snapshots.
pub fn stats() -> OverheadStats {
    let cfg = default_config().with_trace(TraceConfig::full());
    let clients =
        homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, DEFAULT_NUM_BATCHES);
    let handoff = cfg.switch_latency + cfg.launch_overhead;

    let base_report =
        run_experiment(&cfg, clients.clone(), &mut FifoScheduler::new());
    assert!(base_report.all_finished());
    assert_eq!(base_report.trace.dropped, 0, "full trace must be lossless");
    let baseline = TraceStats::from_trace(&base_report.trace, handoff);

    let store = build_store_for(&cfg, &clients);
    let q = choose_q(&cfg, &clients, OVERHEAD_BOUND);
    let mut sched = fair(store, q);
    let report = run_experiment(&cfg, clients, &mut sched);
    assert!(report.all_finished());
    assert_eq!(report.trace.dropped, 0, "full trace must be lossless");
    let olympian = TraceStats::from_trace(&report.trace, handoff);

    OverheadStats { baseline, olympian, q_us: q.as_micros_f64() }
}

/// Runs the experiment and returns the report and its claims: the realized
/// overhead stays below the paper's 2% bound, fair sharing actually
/// switches, and the trace-attributed hand-off idle stays within the
/// windows the hand-offs opened.
pub fn run() -> Figure {
    let mut out = banner(
        "Overhead",
        "Scheduler overhead for the Figure 11 workload at the paper's 2% tolerance",
    );
    let s = stats();
    let o = &s.olympian;
    let frac = s.realized_overhead();
    out.push_str(&format!(
        "quantum Q            : {:.0} us (Overhead-Q curve at {:.0}% tolerance)\n",
        s.q_us,
        OVERHEAD_BOUND * 100.0
    ));
    out.push_str(&format!(
        "makespan             : baseline {:.3} s, olympian {:.3} s\n",
        s.baseline.makespan_us / 1e6,
        o.makespan_us / 1e6
    ));
    out.push_str(&format!("token switches       : {}\n", o.token_switches));
    out.push_str(&format!(
        "quantum GPU duration : mean {:.0} us, p50 {:.0} us, p90 {:.0} us ({} quanta)\n",
        o.quantum.mean_us, o.quantum.p50_us, o.quantum.p90_us, o.quantum.count
    ));
    out.push_str(&format!(
        "overflow             : {:.0} us across {} kernels\n",
        o.overflow_us, o.overflow_count
    ));
    let attributed = o.scheduler_overhead_us.expect("full trace has kernel spans");
    let masked = 1.0 - attributed / o.handoff_bound_us.max(1e-9);
    out.push_str(&format!(
        "hand-off windows     : {:.0} us opened, {:.0} us left idle ({:.0}% masked by overflow)\n",
        o.handoff_bound_us, attributed, masked * 100.0
    ));
    out.push_str(&format!(
        "realized overhead    : {:.3}% makespan inflation over baseline (paper: <{:.0}%)\n",
        frac * 100.0,
        OVERHEAD_BOUND * 100.0
    ));
    let below = frac < OVERHEAD_BOUND;
    out.push_str(&format!(
        "\nCHECK {}: realized overhead {:.3}% {} {:.0}% bound\n",
        if below { "PASSED" } else { "FAILED" },
        frac * 100.0,
        if below { "<" } else { ">=" },
        OVERHEAD_BOUND * 100.0
    ));
    let claims = vec![
        Claim::new(
            "overhead.below_the_paper_bound",
            below,
            format!(
                "realized overhead {:.3}%, bound < {:.0}%",
                frac * 100.0,
                OVERHEAD_BOUND * 100.0
            ),
        ),
        Claim::new(
            "overhead.fair_sharing_switches",
            o.token_switches > 100,
            format!("{} token switches, bound > 100", o.token_switches),
        ),
        Claim::new(
            "overhead.attributed_idle_within_handoff_windows",
            attributed <= o.handoff_bound_us,
            format!(
                "{attributed:.0} us left idle of {:.0} us opened, bound at most opened",
                o.handoff_bound_us
            ),
        ),
    ];
    Figure { text: out, claims }
}
