//! One module per table/figure of the paper's evaluation.
//!
//! Every module exposes `run() -> Figure`: it executes the experiment,
//! formats the same rows/series the paper plots as the report text (which
//! the `all` binary prints and saves under `results/`), and decides the
//! figure's claims on the same values the text was rendered from.

pub mod ablations;
pub mod blame;
pub mod chaos;
pub mod closedloop;
pub mod dynamic_workload;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig08;
pub mod fig11;
pub mod fig12;
pub mod fig13_14;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fleet;
pub mod lifecycle;
pub mod motivation;
pub mod multi_gpu;
pub mod overhead;
pub mod robustness;
pub mod scalability;
pub mod stability;
pub mod table2;
pub mod telemetry;
pub mod timeline;
pub mod utilization;

use olympian::{OlympianScheduler, ProfileStore, RoundRobin};
use serving::RunReport;
use simtime::SimDuration;
use std::fmt;
use std::sync::Arc;

/// What one experiment produces: its report text and the claims checked on
/// the values the text was rendered from, so nothing is simulated twice.
#[derive(Debug)]
pub struct Figure {
    /// The report, printed and saved as `results/<name>.txt`.
    pub text: String,
    /// The claims the report reproduces, in the order they were decided.
    pub claims: Vec<Claim>,
}

/// One claim of a report, decided on its measured values.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Stable `<report>.<claim>` name.
    pub name: String,
    /// Whether the measured values satisfy the claim.
    pub held: bool,
    /// The measured values and the bound they were held to.
    pub measured: String,
}

impl Claim {
    /// A claim named `name` that `held` on the `measured` values.
    pub fn new(name: impl Into<String>, held: bool, measured: impl Into<String>) -> Self {
        Claim { name: name.into(), held, measured: measured.into() }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.held { "held" } else { "BROKEN" };
        write!(f, "claim {} {verdict}: {}", self.name, self.measured)
    }
}

/// Evaluates claims: `Ok` when every one held.
///
/// # Errors
///
/// Names every broken claim with its measured values.
pub fn evaluate(claims: &[Claim]) -> Result<(), String> {
    let broken: Vec<String> = claims
        .iter()
        .filter(|c| !c.held)
        .map(|c| format!("{} ({})", c.name, c.measured))
        .collect();
    if broken.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} of {} claims broken: {}",
        broken.len(),
        claims.len(),
        broken.join("; ")
    ))
}

/// An experiment: a stable name (the `results/<name>.txt` key) and the
/// function regenerating its report and claims.
pub type Experiment = (&'static str, fn() -> Figure);

/// Every experiment of the reproduction, in the paper's presentation order.
///
/// This is the registry the `all` binary iterates; entries are independent
/// deterministic simulations, so it may run them in parallel as long as
/// results are merged in registry order.
pub fn registry() -> Vec<Experiment> {
    vec![
        ("table2", table2::run),
        ("fig03", fig03::run),
        ("fig04", fig04::run),
        ("fig06", fig06::run),
        ("fig08", fig08::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13_14", fig13_14::run),
        ("fig16", fig16::run),
        ("fig17", fig17::run),
        ("fig18", fig18::run),
        ("fig19", fig19::run),
        ("fig20", fig20::run),
        ("fig21", fig21::run),
        ("utilization", utilization::run),
        ("scalability", scalability::run),
        ("stability", stability::run),
        ("multi_gpu", multi_gpu::run),
        ("dynamic_workload", dynamic_workload::run),
        ("ablations", ablations::run),
        ("timeline", timeline::run),
        ("telemetry", telemetry::run),
        ("overhead", overhead::run),
        ("motivation", motivation::run),
        ("robustness", robustness::run),
        ("chaos", chaos::run),
        ("lifecycle", lifecycle::run),
        ("blame", blame::run),
        ("closedloop", closedloop::run),
        ("fleet", fleet::run),
    ]
}

/// The registry entries named in `names`, in registry order whatever the
/// order (or repetition) of `names`; every entry when `names` is empty.
///
/// # Errors
///
/// An unknown name, with the list of known ones.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<Experiment>, String> {
    let all = registry();
    if let Some(bad) = names
        .iter()
        .map(AsRef::as_ref)
        .find(|n| !all.iter().any(|&(name, _)| name == *n))
    {
        let known: Vec<&str> = all.iter().map(|&(name, _)| name).collect();
        return Err(format!("unknown experiment {bad:?}; known: {}", known.join(", ")));
    }
    if names.is_empty() {
        return Ok(all);
    }
    Ok(all
        .into_iter()
        .filter(|&(name, _)| names.iter().any(|n| n.as_ref() == name))
        .collect())
}

/// The error for a scenario name that `suite` (`chaos`, `lifecycle`,
/// `control` or `fleet`) does not know, listing the ones it does.
pub(crate) fn unknown_scenario<'a>(
    suite: &str,
    name: &str,
    known: impl IntoIterator<Item = &'a str>,
) -> String {
    let known: Vec<&str> = known.into_iter().collect();
    format!("unknown {suite} scenario {name:?}; available: {}", known.join(", "))
}

/// A fair-sharing Olympian scheduler over the given profiles and quantum.
pub(crate) fn fair(store: Arc<ProfileStore>, q: SimDuration) -> OlympianScheduler {
    OlympianScheduler::new(store, Box::new(RoundRobin::new()), q)
}

/// p99 of completed-run latency, in microseconds. Cancelled runs never
/// complete, so they are absent by construction — the histogram is the
/// experience of the requests that were actually served.
pub(crate) fn p99_latency_us(report: &RunReport) -> f64 {
    report
        .telemetry
        .hist("run_latency_us")
        .expect("telemetered run")
        .p99
}

/// A run's telemetry counter, zero when absent.
pub(crate) fn counter(report: &RunReport, name: &str) -> u64 {
    report.telemetry.counter(name).unwrap_or(0)
}

/// Completed runs a telemetered run served.
pub(crate) fn completed_runs(report: &RunReport) -> u64 {
    report.telemetry.hist("run_latency_us").map_or(0, |h| h.count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(selected: &[Experiment]) -> Vec<&'static str> {
        selected.iter().map(|&(name, _)| name).collect()
    }

    #[test]
    fn no_names_selects_the_whole_registry() {
        let none: [&str; 0] = [];
        assert_eq!(names(&select(&none).unwrap()), names(&registry()));
    }

    #[test]
    fn selection_follows_registry_order() {
        let picked = select(&["fleet", "table2", "fig08", "table2"]).unwrap();
        assert_eq!(names(&picked), ["table2", "fig08", "fleet"]);
    }

    #[test]
    fn evaluate_names_exactly_the_broken_claim_with_its_values() {
        let held = Claim::new("fig17.weighted_ratio_k2", true, "ratio 0.7481 vs 0.7500");
        let broken = Claim::new("fleet.zipf.p99_beats_static", false, "fleet 9000us vs 7000us");
        assert_eq!(evaluate(&[held.clone(), held.clone()]), Ok(()));
        assert_eq!(evaluate(&[]), Ok(()));

        let err = evaluate(&[held.clone(), broken.clone(), held.clone()]).unwrap_err();
        assert_eq!(
            err,
            "1 of 3 claims broken: fleet.zipf.p99_beats_static (fleet 9000us vs 7000us)"
        );
        assert!(!err.contains(&held.name), "{err}");
        assert_eq!(
            broken.to_string(),
            "claim fleet.zipf.p99_beats_static BROKEN: fleet 9000us vs 7000us"
        );
        assert_eq!(held.to_string(), "claim fig17.weighted_ratio_k2 held: ratio 0.7481 vs 0.7500");
    }

    #[test]
    fn unknown_name_lists_the_known_ones() {
        let err = select(&["fig03", "fig99"]).unwrap_err();
        assert!(err.contains("\"fig99\""), "{err}");
        for (name, _) in registry() {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
    }
}
