//! Profiling runs uninstrumented whatever config it is handed.
//!
//! The paper profiles on an idle GPU, so the profiler drops the caller's
//! trace and telemetry settings: a Full-trace, telemetered config must
//! profile with no more heap than the plain one, and to the same profile.
//! This test measures the peak live bytes of its thread with a counting
//! `#[global_allocator]`.

mod counting_alloc;

use counting_alloc::peak_live_bytes_during;
use olympian::{ModelProfile, Profiler};
use serving::{EngineConfig, TelemetryConfig, TraceConfig};
use simtime::SimDuration;

/// Profiles `model` under `cfg`, returning the profile and the peak heap
/// the profiling held.
fn profile(cfg: &EngineConfig, model: &models::LoadedModel) -> (ModelProfile, u64) {
    let mut profile = None;
    let peak = peak_live_bytes_during(|| profile = Some(Profiler::new(cfg).profile(model)));
    (profile.expect("profiled"), peak)
}

#[test]
fn profiling_under_a_full_trace_config_holds_no_more_heap_than_plain() {
    let model = models::mini::small(4);
    let plain = EngineConfig::default();
    let instrumented = plain
        .clone()
        .with_trace(TraceConfig::full())
        .with_telemetry(TelemetryConfig::enabled(SimDuration::from_micros(100)));

    let (plain_profile, plain_peak) = profile(&plain, &model);
    let (instrumented_profile, instrumented_peak) = profile(&instrumented, &model);
    assert_eq!(
        format!("{instrumented_profile:?}"),
        format!("{plain_profile:?}"),
        "instrumentation must not move a profile"
    );
    assert!(
        instrumented_peak <= plain_peak,
        "profiling under a Full trace peaked at {instrumented_peak} bytes, plain at {plain_peak}"
    );
}
