//! Extension experiment (paper §7 future work: "more realistic workloads"):
//! open-loop Poisson request arrivals through TF-Serving's batcher.
//!
//! Two tenants share the GPU: a latency-sensitive tenant with small, fast
//! batches and a bulk tenant with large ones. Requests arrive Poisson; the
//! batcher (size cap + timeout) forms `Session::Run`s; per-request latency
//! is `batch completion − request arrival`. Under the baseline, the bulk
//! tenant's kernels crowd the interactive tenant's; under Olympian weighted
//! fair sharing, the interactive tenant's latency tail collapses.

use crate::{banner, build_store_for, default_config};
use crate::figs::{Claim, Figure};
use metrics::table::render_table;
use metrics::Cdf;
use models::ModelKind;
use olympian::{OlympianScheduler, WeightedFair};
use serving::batching::{plan_batches, BatchingConfig};
use serving::workload::poisson_arrivals;
use serving::{run_experiment, ClientSpec, FifoScheduler, RunReport};
use simtime::{SimDuration, SimTime};

/// Per-tenant workload description.
struct Tenant {
    kind: ModelKind,
    rate_per_sec: f64,
    batching: BatchingConfig,
    weight: u32,
    seed: u64,
}

/// Builds the experiment's client list and remembers which clients belong
/// to which tenant plus each batch's request arrivals.
pub struct DynamicWorkload {
    clients: Vec<ClientSpec>,
    /// (tenant index, request arrivals) per client, aligned with `clients`.
    membership: Vec<(usize, Vec<SimTime>)>,
}

fn tenants() -> Vec<Tenant> {
    vec![
        Tenant {
            // Interactive: small batches, short batching timeout, 4 tickets.
            kind: ModelKind::ResNet50,
            rate_per_sec: 6.0,
            batching: BatchingConfig::new(8, SimDuration::from_millis(100)),
            weight: 4,
            seed: 11,
        },
        Tenant {
            // Bulk analytics: big batches, generous timeout, 1 ticket.
            kind: ModelKind::InceptionV4,
            rate_per_sec: 40.0,
            batching: BatchingConfig::new(100, SimDuration::from_millis(500)),
            weight: 1,
            seed: 22,
        },
    ]
}

/// The arrival horizon. Rates are sized so the offered GPU load is ~75% of
/// capacity — loaded but stable.
pub const HORIZON: SimDuration = SimDuration::from_secs(10);

/// Builds the batched workload.
pub fn build() -> DynamicWorkload {
    let mut clients = Vec::new();
    let mut membership = Vec::new();
    for (ti, t) in tenants().into_iter().enumerate() {
        let arrivals = poisson_arrivals(t.rate_per_sec, HORIZON, t.seed);
        for batch in plan_batches(&arrivals, &t.batching) {
            let model = models::load(t.kind, batch.size()).expect("zoo model");
            clients.push(
                ClientSpec::new(model, 1)
                    .with_weight(t.weight)
                    .with_start(batch.formed_at()),
            );
            membership.push((ti, batch.request_arrivals().to_vec()));
        }
    }
    DynamicWorkload { clients, membership }
}

/// Per-request latencies (ms) of one tenant under a finished report.
pub fn tenant_latencies(w: &DynamicWorkload, report: &RunReport, tenant: usize) -> Vec<f64> {
    let mut latencies = Vec::new();
    for (client, (ti, arrivals)) in report.clients.iter().zip(&w.membership) {
        if *ti != tenant || !client.is_finished() {
            continue;
        }
        let done = client.finish_time();
        for &a in arrivals {
            latencies.push((done - a).as_millis_f64());
        }
    }
    latencies
}

/// Runs the experiment and returns the report and its claim.
pub fn run() -> Figure {
    let mut out = banner(
        "Extension: dynamic workload",
        "Poisson arrivals through the batcher: interactive vs bulk tenant",
    );
    let cfg = default_config();
    let w = build();
    out.push_str(&format!(
        "\n{} batched Session::Runs formed from open-loop arrivals over {}s\n",
        w.clients.len(),
        HORIZON.as_secs_f64()
    ));

    let base = run_experiment(&cfg, w.clients.clone(), &mut FifoScheduler::new());
    // Weighted fair: the interactive tenant holds 4 tickets. Profiles must
    // cover every batch size the batcher produced — exact profiles for each
    // (cheap here), as a deployment would combine common sizes + linear fits.
    let store = build_store_for(&cfg, &w.clients);
    let mut sched =
        OlympianScheduler::new(store, Box::new(WeightedFair::new()), SimDuration::from_micros(1200));
    let oly = run_experiment(&cfg, w.clients.clone(), &mut sched);

    let mut rows = Vec::new();
    let mut interactive_p99 = Vec::new();
    for (system, report) in [("tf-serving", &base), ("olympian weighted 4:1", &oly)] {
        for (ti, name) in [(0usize, "interactive"), (1, "bulk")] {
            let lat = tenant_latencies(&w, report, ti);
            let cdf = Cdf::of(lat.iter().copied());
            if ti == 0 {
                interactive_p99.push(cdf.quantile(0.99));
            }
            rows.push(vec![
                system.to_string(),
                name.to_string(),
                format!("{}", cdf.len()),
                format!("{:.0}", cdf.quantile(0.5)),
                format!("{:.0}", cdf.quantile(0.95)),
                format!("{:.0}", cdf.quantile(0.99)),
            ]);
        }
    }
    out.push_str(&render_table(
        &["system", "tenant", "requests", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        &rows,
    ));
    out.push_str(
        "\nExpected: Olympian cuts the interactive tenant's tail latency sharply \
         while the bulk tenant pays modestly — the service-differentiation story \
         of the paper's introduction under a realistic arrival process.\n",
    );
    let (base_p99, oly_p99) = (interactive_p99[0], interactive_p99[1]);
    let claim = Claim::new(
        "dynamic_workload.weighted_sharing_cuts_interactive_p99",
        oly_p99 < base_p99,
        format!("interactive p99 {oly_p99:.1} ms under olympian vs {base_p99:.1} ms baseline"),
    );
    Figure { text: out, claims: vec![claim] }
}
