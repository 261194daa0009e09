//! The offline profiler (paper §3.3, Figure 7's "Profiler" box).
//!
//! Runs when the GPU is otherwise idle, once per model and batch size:
//!
//! * an *instrumented* run collects per-node costs through the (simulated)
//!   TensorFlow cost-model API — with realistic measurement noise;
//! * a *clean* exclusive run measures the GPU duration `D_j`;
//! * pairs of instances are raced on stock TF-Serving vs. Olympian across a
//!   sweep of quantum values to produce the **Overhead-Q curve** (Figure 8),
//!   from which an operator's overhead tolerance picks the smallest safe `Q`;
//! * profiles at a few batch sizes are generalized to any batch by
//!   per-node **linear regression** ([`LinearCostModel`], Figure 20).

use crate::policy::RoundRobin;
use crate::profile::{ModelProfile, ProfileStore};
use crate::scheduler::OlympianScheduler;
use dataflow::CostModel;
use metrics::linear_fit;
use models::LoadedModel;
use serving::{
    run_experiment, ClientSpec, EngineConfig, FifoScheduler, TelemetryConfig, TraceConfig,
};
use simtime::{DetRng, SimDuration};
use std::fmt;
use std::sync::Arc;

/// Overhead as a function of the quantum `Q` for one `(model, batch)` —
/// the paper's Figure 8 series.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadQCurve {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: u64,
    /// `(Q, overhead)` points, ascending in `Q`. Overhead is the relative
    /// slowdown of a two-instance race under Olympian vs. stock TF-Serving.
    pub points: Vec<(SimDuration, f64)>,
}

impl OverheadQCurve {
    /// The smallest `Q` whose (linearly interpolated) overhead is at most
    /// `tolerance`, or `None` if even the largest measured `Q` exceeds it.
    ///
    /// # Panics
    ///
    /// Panics if the curve is empty or `tolerance` is negative.
    pub fn q_at_tolerance(&self, tolerance: f64) -> Option<SimDuration> {
        assert!(!self.points.is_empty(), "empty Overhead-Q curve");
        assert!(tolerance >= 0.0, "negative tolerance");
        let mut prev: Option<(SimDuration, f64)> = None;
        for &(q, ov) in &self.points {
            if ov <= tolerance {
                return Some(match prev {
                    // Interpolate between the bracketing points.
                    Some((pq, pov)) if pov > tolerance => {
                        let frac = (pov - tolerance) / (pov - ov);
                        let span = q.as_nanos().saturating_sub(pq.as_nanos()) as f64;
                        pq + SimDuration::from_nanos((span * frac).round() as u64)
                    }
                    _ => q,
                });
            }
            prev = Some((q, ov));
        }
        None
    }
}

/// Error from linear-model fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Need at least two profiles at distinct batch sizes.
    NotEnoughProfiles,
    /// Profiles mix different models or node counts.
    Inconsistent,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::NotEnoughProfiles => {
                write!(f, "linear cost model needs two profiles at distinct batch sizes")
            }
            FitError::Inconsistent => write!(f, "profiles cover different models or graphs"),
        }
    }
}

impl std::error::Error for FitError {}

/// Per-node linear batch-size model: profile a couple of common batch sizes,
/// predict the cost table (and `D_j`) for any other (paper §4.4, Figure 20).
#[derive(Debug, Clone)]
pub struct LinearCostModel {
    model: String,
    node_fits: Vec<(f64, f64)>,
    duration_fit: (f64, f64),
}

impl LinearCostModel {
    /// Fits per-node cost lines and a duration line across profiles of the
    /// same model at different batch sizes.
    ///
    /// # Errors
    ///
    /// * [`FitError::NotEnoughProfiles`] with fewer than two distinct batches.
    /// * [`FitError::Inconsistent`] when profiles mix models or graphs.
    pub fn fit(profiles: &[&ModelProfile]) -> Result<LinearCostModel, FitError> {
        if profiles.len() < 2 {
            return Err(FitError::NotEnoughProfiles);
        }
        let model = profiles[0].model.clone();
        let nodes = profiles[0].costs.len();
        let mut batches: Vec<u64> = profiles.iter().map(|p| p.batch).collect();
        batches.sort_unstable();
        batches.dedup();
        if batches.len() < 2 {
            return Err(FitError::NotEnoughProfiles);
        }
        if profiles.iter().any(|p| p.model != model || p.costs.len() != nodes) {
            return Err(FitError::Inconsistent);
        }
        let node_fits = (0..nodes)
            .map(|i| {
                let pts: Vec<(f64, f64)> = profiles
                    .iter()
                    .map(|p| {
                        (
                            p.batch as f64,
                            p.costs.cost(dataflow::NodeId::from_index(i)) as f64,
                        )
                    })
                    .collect();
                linear_fit(&pts)
            })
            .collect();
        let d_pts: Vec<(f64, f64)> = profiles
            .iter()
            .map(|p| (p.batch as f64, p.gpu_duration.as_nanos() as f64))
            .collect();
        Ok(LinearCostModel {
            model,
            node_fits,
            duration_fit: linear_fit(&d_pts),
        })
    }

    /// The model this fit covers.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Predicts the full profile at `batch`.
    pub fn predict(&self, batch: u64) -> ModelProfile {
        let b = batch as f64;
        let costs: Vec<u64> = self
            .node_fits
            .iter()
            .map(|&(a, m)| (a + m * b).round().max(0.0) as u64)
            .collect();
        let total_cost = costs.iter().sum();
        let (da, dm) = self.duration_fit;
        ModelProfile {
            model: self.model.clone(),
            batch,
            costs: CostModel::from_costs(costs),
            total_cost,
            gpu_duration: SimDuration::from_nanos((da + dm * b).round().max(1.0) as u64),
        }
    }
}

/// Relative σ of per-node cost measurement noise: 2.5%, matching the
/// paper's observed cost stability.
const COST_NOISE: f64 = 0.025;

/// Batches each of the two racers submits in an Overhead-Q measurement.
const PAIR_BATCHES: u32 = 3;

/// The offline profiler.
#[derive(Debug, Clone)]
pub struct Profiler {
    cfg: EngineConfig,
}

impl Profiler {
    /// Creates a profiler that profiles under a quiesced, uninstrumented
    /// copy of `cfg` — the paper profiles "when the GPU is idle", so
    /// workload noise sources are disabled, and nothing is traced or
    /// metered.
    pub fn new(cfg: &EngineConfig) -> Self {
        let cfg = EngineConfig {
            trace: TraceConfig::off(),
            telemetry: TelemetryConfig::off(),
            ..cfg.quiescent()
        };
        Profiler { cfg }
    }

    /// Profiles one `(model, batch)`: an instrumented run for per-node costs
    /// plus a clean exclusive run for the GPU duration `D_j`.
    pub fn profile(&self, model: &LoadedModel) -> ModelProfile {
        // Cost pass: the cost-model API reports per-node costs with
        // measurement noise.
        let mut rng = DetRng::new(self.cfg.seed ^ hash_name(model.name()) ^ model.batch());
        let exact = CostModel::exact(model.graph());
        // A profiling run's measurements share run conditions (clock state,
        // contention), so noise has a common run-level component on top of
        // the per-node component; this makes the *total* cost vary ~σ across
        // profiling runs, as the paper measures (§4.4).
        let run_factor = rng.lognormal(0.0, COST_NOISE);
        let costs: Vec<u64> = exact
            .iter()
            .map(|(_, c)| {
                if c == 0 {
                    0
                } else {
                    ((c as f64) * run_factor * rng.jitter(COST_NOISE))
                        .round()
                        .max(1.0) as u64
                }
            })
            .collect();
        let costs = CostModel::from_costs(costs);
        let total_cost = costs.total();

        // Duration pass: one exclusive, uninstrumented run.
        let report = run_experiment(
            &self.cfg,
            vec![ClientSpec::new(model.clone(), 1)],
            &mut FifoScheduler::new(),
        );
        assert!(report.all_finished(), "profiling run must complete");
        let gpu_duration = report.clients[0].run_gpu_durations[0];
        ModelProfile {
            model: model.name().to_string(),
            batch: model.batch(),
            costs,
            total_cost,
            gpu_duration,
        }
    }

    /// Measures the Figure 6 comparison: single-job finish time with the
    /// online cost profiler off vs. on. Returns `(off_secs, on_secs)`.
    pub fn online_profiler_cost(&self, model: &LoadedModel, inflation: f64) -> (f64, f64) {
        let off = run_experiment(
            &self.cfg,
            vec![ClientSpec::new(model.clone(), 1)],
            &mut FifoScheduler::new(),
        );
        let on = run_experiment(
            &self.cfg.with_online_profiling(inflation),
            vec![ClientSpec::new(model.clone(), 1)],
            &mut FifoScheduler::new(),
        );
        (
            off.makespan.as_secs_f64(),
            on.makespan.as_secs_f64(),
        )
    }

    /// Measures the Overhead-Q curve for one model (paper §3.3): two
    /// concurrent instances of three batches each raced on stock TF-Serving
    /// (case *a*) and on Olympian fair sharing with each candidate `Q`
    /// (case *b*); overhead is `(finish_b − finish_a) / finish_a`.
    ///
    /// # Panics
    ///
    /// Panics if `qs` is empty or either racing run fails to finish.
    pub fn overhead_q_curve(&self, model: &LoadedModel, qs: &[SimDuration]) -> OverheadQCurve {
        self.race_q(model, qs, None)
    }

    /// The smallest `Q` meeting `tolerance` for one model: exactly
    /// `self.overhead_q_curve(model, qs).q_at_tolerance(tolerance)`, but the
    /// candidates are raced in ascending waves of [`simpar::max_jobs`] and
    /// the race stops after the first wave holding a point within
    /// `tolerance`. [`OverheadQCurve::q_at_tolerance`] never reads past that
    /// point, so the answer needs no monotone curve and does not depend on
    /// the wave width.
    ///
    /// # Panics
    ///
    /// Panics if `qs` is empty, `tolerance` is negative or a racing run
    /// fails to finish.
    pub fn q_at_tolerance(
        &self,
        model: &LoadedModel,
        qs: &[SimDuration],
        tolerance: f64,
    ) -> Option<SimDuration> {
        assert!(tolerance >= 0.0, "negative tolerance");
        self.race_q(model, qs, Some(tolerance)).q_at_tolerance(tolerance)
    }

    /// Races the baseline pair once and the Olympian pair at each of `qs`
    /// in ascending order, stopping after the first wave with a point at or
    /// under `stop_at` when one is given.
    fn race_q(
        &self,
        model: &LoadedModel,
        qs: &[SimDuration],
        stop_at: Option<f64>,
    ) -> OverheadQCurve {
        assert!(!qs.is_empty(), "need at least one candidate quantum");
        let clients = || vec![ClientSpec::new(model.clone(), PAIR_BATCHES); 2];
        let base = run_experiment(&self.cfg, clients(), &mut FifoScheduler::new());
        assert!(base.all_finished(), "baseline race must complete");
        let base_finish = base.makespan.as_secs_f64();

        let profile = self.profile(model);
        let mut store = ProfileStore::new();
        store.insert(profile);
        let store = Arc::new(store);

        let mut qs = qs.to_vec();
        qs.sort();
        // Each candidate race is an independent deterministic simulation, so
        // a wave is raced in parallel; `par_map` returns results in wave
        // order, keeping the curve byte-identical to a serial sweep.
        let width = if stop_at.is_some() { simpar::max_jobs() } else { qs.len() };
        let mut points: Vec<(SimDuration, f64)> = Vec::with_capacity(qs.len());
        for wave in qs.chunks(width) {
            points.extend(simpar::par_map(wave, |_, &q| {
                let mut sched =
                    OlympianScheduler::new(Arc::clone(&store), Box::new(RoundRobin::new()), q);
                let run = run_experiment(&self.cfg, clients(), &mut sched);
                assert!(run.all_finished(), "olympian race must complete");
                let overhead = (run.makespan.as_secs_f64() - base_finish) / base_finish;
                (q, overhead)
            }));
            if stop_at.is_some_and(|tol| points.iter().any(|&(_, ov)| ov <= tol)) {
                break;
            }
        }
        OverheadQCurve {
            model: model.name().to_string(),
            batch: model.batch(),
            points,
        }
    }

    /// Picks the quantum for a workload: the smallest `Q` meeting
    /// `tolerance` on *every* curve — i.e. the largest of the per-model
    /// answers (paper §3.3). `None` if any model cannot meet the tolerance.
    pub fn q_for_tolerance(
        curves: &[OverheadQCurve],
        tolerance: f64,
    ) -> Option<SimDuration> {
        curves
            .iter()
            .map(|c| c.q_at_tolerance(tolerance))
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }
}

fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_measures_cost_and_duration() {
        let cfg = EngineConfig::default();
        let m = models::mini::small(4);
        let p = Profiler::new(&cfg).profile(&m);
        // 64 GPU nodes × 25 µs; device jitter ±1%.
        let d = p.gpu_duration.as_micros_f64();
        assert!((d - 1600.0).abs() < 60.0, "D = {d} µs");
        let exact = m.graph().total_true_cost() as f64;
        let rel = (p.total_cost as f64 - exact).abs() / exact;
        assert!(rel < 0.02, "cost error {rel}");
    }

    #[test]
    fn profile_is_deterministic() {
        let cfg = EngineConfig::default();
        let m = models::mini::small(4);
        let prof = Profiler::new(&cfg);
        assert_eq!(prof.profile(&m), prof.profile(&m));
    }

    #[test]
    fn overhead_curve_decreases_with_q() {
        let cfg = EngineConfig::default();
        let m = models::mini::small(4);
        let qs = [
            SimDuration::from_micros(50),
            SimDuration::from_micros(200),
            SimDuration::from_micros(800),
        ];
        let curve = Profiler::new(&cfg).overhead_q_curve(&m, &qs);
        assert_eq!(curve.points.len(), 3);
        let first = curve.points[0].1;
        let last = curve.points[2].1;
        assert!(first > last, "overhead should fall with Q: {first} vs {last}");
    }

    #[test]
    fn q_at_tolerance_interpolates() {
        let curve = OverheadQCurve {
            model: "m".into(),
            batch: 1,
            points: vec![
                (SimDuration::from_micros(100), 0.10),
                (SimDuration::from_micros(200), 0.02),
            ],
        };
        // tolerance 6% lies halfway between the points.
        let q = curve.q_at_tolerance(0.06).unwrap();
        assert_eq!(q, SimDuration::from_micros(150));
        // tolerance below every point: None.
        assert_eq!(curve.q_at_tolerance(0.001), None);
        // tolerance above the first point: the smallest measured Q.
        assert_eq!(
            curve.q_at_tolerance(0.5),
            Some(SimDuration::from_micros(100))
        );
    }

    #[test]
    fn q_for_tolerance_takes_max_across_models() {
        let a = OverheadQCurve {
            model: "a".into(),
            batch: 1,
            points: vec![(SimDuration::from_micros(100), 0.01)],
        };
        let b = OverheadQCurve {
            model: "b".into(),
            batch: 1,
            points: vec![(SimDuration::from_micros(400), 0.01)],
        };
        assert_eq!(
            Profiler::q_for_tolerance(&[a, b], 0.02),
            Some(SimDuration::from_micros(400))
        );
    }

    #[test]
    fn linear_model_recovers_affine_costs() {
        let mk = |batch: u64| ModelProfile {
            model: "m".into(),
            batch,
            costs: CostModel::from_costs(vec![10 + 2 * batch, 5 + batch]),
            total_cost: 15 + 3 * batch,
            gpu_duration: SimDuration::from_nanos(100 + 10 * batch),
        };
        let p50 = mk(50);
        let p100 = mk(100);
        let lin = LinearCostModel::fit(&[&p50, &p100]).unwrap();
        let pred = lin.predict(75);
        assert_eq!(pred.costs.cost(dataflow::NodeId::from_index(0)), 160);
        assert_eq!(pred.costs.cost(dataflow::NodeId::from_index(1)), 80);
        assert_eq!(pred.gpu_duration, SimDuration::from_nanos(850));
        assert_eq!(pred.total_cost, 240);
    }

    #[test]
    fn linear_model_rejects_single_batch() {
        let p = ModelProfile {
            model: "m".into(),
            batch: 10,
            costs: CostModel::from_costs(vec![1]),
            total_cost: 1,
            gpu_duration: SimDuration::from_nanos(1),
        };
        assert_eq!(
            LinearCostModel::fit(&[&p, &p]).unwrap_err(),
            FitError::NotEnoughProfiles
        );
        assert_eq!(LinearCostModel::fit(&[&p]).unwrap_err(), FitError::NotEnoughProfiles);
    }

    #[test]
    fn linear_model_rejects_mixed_models() {
        let mk = |model: &str, batch: u64| ModelProfile {
            model: model.into(),
            batch,
            costs: CostModel::from_costs(vec![1]),
            total_cost: 1,
            gpu_duration: SimDuration::from_nanos(1),
        };
        let a = mk("a", 10);
        let b = mk("b", 20);
        assert_eq!(LinearCostModel::fit(&[&a, &b]).unwrap_err(), FitError::Inconsistent);
    }

    #[test]
    fn online_profiler_cost_shows_inflation() {
        let cfg = EngineConfig::default();
        let m = models::mini::small(2);
        let (off, on) = Profiler::new(&cfg).online_profiler_cost(&m, 0.25);
        let ratio = on / off;
        assert!(ratio > 1.2 && ratio < 1.3, "ratio {ratio}");
    }
}
