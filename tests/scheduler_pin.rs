//! Pins every decision Olympian's token schedulers make.
//!
//! A seeded script drives each scheduler through registrations (most with
//! a deadline), deregistrations of token holders and of bystanders,
//! completions by the holder, overflow completions by other jobs, timers,
//! and bursts of progress by one job, keeping up to [`LIVE`] jobs
//! registered. The FNV-1a digest of every verdict and of every `may_run`,
//! `cost_state`, `next_timer` and `telemetry_probe` answer pins each
//! decision, so a change to how a scheduler or a policy finds its jobs or
//! its most urgent one must leave every digest where it is.
//!
//! The script runs against `OlympianScheduler` under each policy with the
//! cost meter, with the cost meter and the token-hold watchdog, and with
//! the wall-clock meter, and against a two-device `MultiGpuScheduler`
//! under each policy. The ignored twin runs it with [`SCALE_LIVE`] live
//! jobs and at least a million hook calls.

use dataflow::{CostModel, NodeId};
use olympian::{
    DeadlinePolicy, Lottery, ModelProfile, MultiGpuScheduler, OlympianScheduler, Policy, Priority,
    ProfileStore, RoundRobin, WeightedFair,
};
use serving::{ClientId, JobCtx, JobId, Scheduler, Verdict};
use simtime::{DetRng, SimDuration, SimTime};
use std::sync::Arc;

/// Most jobs the tier-1 script keeps registered at once.
const LIVE: usize = 64;
/// Script steps per scheduler in the tier-1 run.
const STEPS: u32 = 3_000;
/// Most jobs the ignored twin keeps registered at once.
const SCALE_LIVE: usize = 256;
/// Script steps per scheduler in the ignored twin.
const SCALE_STEPS: u32 = 12_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The profiled models jobs are drawn from, each at batch 1.
const MODELS: [&str; 4] = ["m0", "m1", "m2", "m3"];
/// The quantum `Q`; at a rate of about one cost unit per ns a holder's
/// turn ends after four or five of its completions.
const QUANTUM_NS: u64 = 400;

/// Each configuration's digest, derived from the script at the commit
/// before schedulers kept a lookup hint and `DeadlinePolicy` its argmin.
const PINS: [(&str, u64); 24] = [
    ("fair/cost", 0x85134e307f51676f),
    ("fair/watchdog", 0xa5c28a6bf59d7367),
    ("fair/wall", 0x4dcdc8d7a1859080),
    ("weighted-fair/cost", 0x46e351dae8572c4e),
    ("weighted-fair/watchdog", 0x68192de88980e9e4),
    ("weighted-fair/wall", 0x3bc8fe606f38ec0c),
    ("priority/cost", 0xa33101183c2d1a40),
    ("priority/watchdog", 0xb9ea0838bb9f3064),
    ("priority/wall", 0x08dcc966db96195b),
    ("lottery/cost", 0xae41c91d7cf406a4),
    ("lottery/watchdog", 0x9ddeccb0c1d6ddc2),
    ("lottery/wall", 0xd800906418852296),
    ("edf/cost", 0xf6983afa6451308c),
    ("edf/watchdog", 0x9acc8cfa0754a3d9),
    ("edf/wall", 0xbc14785347102b66),
    ("laxity/cost", 0xb2a719f5a8798e5c),
    ("laxity/watchdog", 0x5412cdfafb36d216),
    ("laxity/wall", 0xb438c4837665860e),
    ("multi/fair", 0x4da1b00df64041b3),
    ("multi/weighted-fair", 0x98be0a291e3710b9),
    ("multi/priority", 0xd624a1c93e5b8b10),
    ("multi/lottery", 0x3ae7b756a2aed873),
    ("multi/edf", 0x05fb3afde102ae16),
    ("multi/laxity", 0x7aee1fdbad40e64d),
];

/// The ignored twin's digests, derived the same way.
const SCALE_PINS: [(&str, u64); 24] = [
    ("fair/cost", 0x94c699f60d5b3e9b),
    ("fair/watchdog", 0x92dd3cd651cbd42b),
    ("fair/wall", 0x83d75fecd33454bd),
    ("weighted-fair/cost", 0x5efc656a1b0cee5e),
    ("weighted-fair/watchdog", 0xc14493e6bec3a029),
    ("weighted-fair/wall", 0x743b8c67b2e8d87e),
    ("priority/cost", 0xfb5a8a850bf44349),
    ("priority/watchdog", 0x73b96e6e729219e2),
    ("priority/wall", 0xe8f6680e14698879),
    ("lottery/cost", 0x162fdcd244392a8a),
    ("lottery/watchdog", 0x245a7ed05209c108),
    ("lottery/wall", 0x21035ec81e3c89c4),
    ("edf/cost", 0x25e9a59bbb22be69),
    ("edf/watchdog", 0xa62a938854580bff),
    ("edf/wall", 0x208244745785a0eb),
    ("laxity/cost", 0x862ca62ad9b4cbe9),
    ("laxity/watchdog", 0x34cdddf07a67522c),
    ("laxity/wall", 0x6c053129f0e4bd0f),
    ("multi/fair", 0x1e26103a9ab7e88e),
    ("multi/weighted-fair", 0x47d2a511422c4d03),
    ("multi/priority", 0x2019625d4e1fe542),
    ("multi/lottery", 0x23a638b84cb53948),
    ("multi/edf", 0xd59c22f08cf66809),
    ("multi/laxity", 0x8e2ee38c5cda30c7),
];

/// The policies, by the name their scheduler reports.
const POLICIES: [&str; 6] = ["fair", "weighted-fair", "priority", "lottery", "edf", "laxity"];

fn policy(name: &str) -> Box<dyn Policy> {
    match name {
        "fair" => Box::new(RoundRobin::new()),
        "weighted-fair" => Box::new(WeightedFair::new()),
        "priority" => Box::new(Priority::new()),
        "lottery" => Box::new(Lottery::new(11)),
        "edf" => Box::new(DeadlinePolicy::edf()),
        "laxity" => Box::new(DeadlinePolicy::laxity()),
        other => unreachable!("no policy {other}"),
    }
}

/// One profile per model: 6 to 20 nodes of 20 to 180 cost units, and a
/// GPU duration within a quarter of the total cost in ns.
fn store() -> Arc<ProfileStore> {
    let mut rng = DetRng::new(0x5C4E_D01E);
    let mut store = ProfileStore::new();
    for model in MODELS {
        let nodes = rng.range_u64(6, 21);
        let costs: Vec<u64> = (0..nodes).map(|_| rng.range_u64(20, 181)).collect();
        let total: u64 = costs.iter().sum();
        let gpu_ns = total * rng.range_u64(75, 126) / 100;
        store.insert(ModelProfile {
            model: model.into(),
            batch: 1,
            costs: CostModel::from_costs(costs),
            total_cost: total,
            gpu_duration: SimDuration::from_nanos(gpu_ns),
        });
    }
    Arc::new(store)
}

/// Every scheduler configuration the script runs, by name.
fn configurations(store: &Arc<ProfileStore>) -> Vec<(String, Box<dyn Scheduler>)> {
    let quantum = SimDuration::from_nanos(QUANTUM_NS);
    let mut out: Vec<(String, Box<dyn Scheduler>)> = Vec::new();
    for name in POLICIES {
        let single = || OlympianScheduler::new(Arc::clone(store), policy(name), quantum);
        out.push((format!("{name}/cost"), Box::new(single())));
        out.push((format!("{name}/watchdog"), Box::new(single().with_watchdog(2.0))));
        out.push((format!("{name}/wall"), Box::new(single().with_wall_clock_meter())));
    }
    for name in POLICIES {
        let multi = MultiGpuScheduler::new(Arc::clone(store), move || policy(name), quantum);
        out.push((format!("multi/{name}"), Box::new(multi)));
    }
    out
}

/// A registered job, as the script tracks it.
struct Live {
    id: JobId,
    device: u32,
    nodes: u64,
}

/// The script driving one scheduler: its draws, clock and live jobs, the
/// digest of the scheduler's answers so far and the hook calls made.
struct Script<'a> {
    sched: &'a mut dyn Scheduler,
    rng: DetRng,
    now: SimTime,
    live: Vec<Live>,
    /// Each device's token holder, as the verdicts reported it.
    holders: Vec<Option<JobId>>,
    next_id: u64,
    /// Each model's node count, indexed like [`MODELS`].
    node_counts: Vec<u64>,
    digest: u64,
    calls: u64,
}

impl Script<'_> {
    fn feed(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(FNV_PRIME);
        }
    }

    fn feed_job(&mut self, job: Option<JobId>) {
        self.feed(job.map_or(u64::MAX, |j| j.0));
    }

    /// Hashes a verdict and moves the tracked holder of `device`.
    fn verdict(&mut self, device: u32, v: Verdict) {
        match v {
            Verdict::Unchanged => self.feed(0),
            Verdict::Moved { from, to, reason } => {
                self.feed(1);
                self.feed_job(from);
                self.feed_job(to);
                self.feed(reason as u64);
                self.holders[device as usize] = to;
            }
        }
    }

    fn probe_job(&mut self, job: JobId) {
        let may_run = self.sched.may_run(job);
        let cost = self.sched.cost_state(job);
        self.calls += 2;
        self.feed(u64::from(may_run));
        match cost {
            Some((cumulated, threshold)) => {
                self.feed(cumulated);
                self.feed(threshold);
            }
            None => self.feed(u64::MAX),
        }
    }

    /// Hashes the answers every step ends with: the step's job and each
    /// holder, the next timer and the telemetry probe.
    fn observe(&mut self, job: Option<JobId>) {
        if let Some(j) = job {
            self.probe_job(j);
        }
        for d in 0..self.holders.len() {
            if let Some(h) = self.holders[d] {
                self.probe_job(h);
            }
        }
        let timer = self.sched.next_timer(self.now);
        let probe = self.sched.telemetry_probe();
        self.calls += 2;
        self.feed(timer.map_or(u64::MAX, SimTime::as_nanos));
        self.feed(u64::from(probe.active_jobs));
        match probe.holder_cost {
            Some((cumulated, threshold)) => {
                self.feed(cumulated);
                self.feed(threshold);
            }
            None => self.feed(u64::MAX),
        }
    }

    fn register(&mut self, devices: u32) -> Option<JobId> {
        let id = JobId(self.next_id);
        self.next_id += 1;
        let model = self.rng.range_u64(0, MODELS.len() as u64) as usize;
        let device = self.rng.range_u64(0, u64::from(devices)) as u32;
        let deadline = (self.rng.range_u64(0, 5) > 0)
            .then(|| self.now + SimDuration::from_nanos(self.rng.range_u64(500, 50_000)));
        let ctx = JobCtx {
            client: ClientId(id.0 as u32),
            model_name: MODELS[model],
            batch: 1,
            weight: self.rng.range_u64(1, 4) as u32,
            priority: self.rng.range_u64(0, 3) as u32,
            device,
            now: self.now,
            deadline,
        };
        let v = self.sched.register(id, &ctx).expect("every model is profiled");
        self.calls += 1;
        self.verdict(device, v);
        let nodes = self.node_counts[model];
        self.live.push(Live { id, device, nodes });
        Some(id)
    }

    fn deregister(&mut self, i: usize) -> Option<JobId> {
        let job = self.live.swap_remove(i);
        let v = self.sched.deregister(job.id, self.now);
        self.calls += 1;
        self.verdict(job.device, v);
        Some(job.id)
    }

    fn complete(&mut self, i: usize) -> Option<JobId> {
        let (id, device) = (self.live[i].id, self.live[i].device);
        let node = NodeId::from_index(self.rng.range_u64(0, self.live[i].nodes) as usize);
        let v = self.sched.on_gpu_node_done(id, node, self.now);
        self.calls += 1;
        self.verdict(device, v);
        Some(id)
    }

    fn holder_index(&mut self) -> Option<usize> {
        let held: Vec<JobId> = self.holders.iter().flatten().copied().collect();
        if held.is_empty() {
            return None;
        }
        let pick = held[self.rng.range_u64(0, held.len() as u64) as usize];
        self.live.iter().position(|l| l.id == pick)
    }

    fn bystander_index(&mut self) -> Option<usize> {
        if self.live.is_empty() {
            return None;
        }
        let i = self.rng.range_u64(0, self.live.len() as u64) as usize;
        let id = self.live[i].id;
        (!self.holders.contains(&Some(id))).then_some(i)
    }

    fn step(&mut self, cap: usize, devices: u32) {
        self.now += SimDuration::from_nanos(self.rng.range_u64(0, 50));
        let roll = self.rng.range_u64(0, 100);
        let job = match roll {
            0..=19 if self.live.len() < cap => self.register(devices),
            20..=23 => self.holder_index().and_then(|i| self.deregister(i)),
            24..=31 => self.bystander_index().and_then(|i| self.deregister(i)),
            32..=45 => self.bystander_index().and_then(|i| self.complete(i)),
            46..=51 => {
                // A timer at its instant, or a stale one before it.
                let next = self.sched.next_timer(self.now);
                self.calls += 1;
                if let Some(at) = next {
                    if self.rng.range_u64(0, 4) > 0 && at > self.now {
                        self.now = at;
                    }
                    let v = self.sched.on_timer(self.now);
                    self.calls += 1;
                    self.verdict(0, v);
                }
                None
            }
            52..=59 if !self.live.is_empty() => {
                // A burst of progress by one job, holder or not.
                let i = self.rng.range_u64(0, self.live.len() as u64) as usize;
                for _ in 0..self.rng.range_u64(3, 12) {
                    self.now += SimDuration::from_nanos(self.rng.range_u64(0, 20));
                    self.complete(i);
                }
                Some(self.live[i].id)
            }
            _ => self.holder_index().and_then(|i| self.complete(i)),
        };
        self.observe(job);
    }
}

/// Runs `steps` steps of the script, keeping at most `cap` jobs live, on
/// every configuration; returns each one's digest and the hook calls made
/// in all.
fn run_all(cap: usize, steps: u32) -> (Vec<(String, u64)>, u64) {
    let store = store();
    let node_counts: Vec<u64> = MODELS
        .iter()
        .map(|m| store.get(m, 1).expect("profiled").costs.len() as u64)
        .collect();
    let mut calls = 0;
    let digests = configurations(&store)
        .into_iter()
        .map(|(name, mut sched)| {
            let devices = if name.starts_with("multi/") { 2 } else { 1 };
            let mut script = Script {
                sched: sched.as_mut(),
                rng: DetRng::new(0x0B1E_5EED),
                now: SimTime::ZERO,
                live: Vec::new(),
                holders: vec![None; devices as usize],
                next_id: 0,
                node_counts: node_counts.clone(),
                digest: FNV_OFFSET,
                calls: 0,
            };
            for _ in 0..steps {
                script.step(cap, devices);
            }
            calls += script.calls;
            (name, script.digest)
        })
        .collect();
    (digests, calls)
}

/// Fails listing every configuration whose digest moved, with the whole
/// table as it now stands.
fn check(digests: &[(String, u64)], pins: &[(&str, u64)]) {
    let names: Vec<&str> = digests.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = pins.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "configurations and pins disagree");
    let moved: Vec<String> = digests
        .iter()
        .zip(pins)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| format!("{name}: {got:#018x}, pinned {want:#018x}"))
        .collect();
    let table: String = digests
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert!(
        moved.is_empty(),
        "digests moved:\n{}\nnow:\n{table}",
        moved.join("\n")
    );
}

#[test]
fn every_scheduling_decision_is_pinned() {
    let (digests, calls) = run_all(LIVE, STEPS);
    assert!(calls > 400_000, "the script made only {calls} hook calls");
    check(&digests, &PINS);
}

#[test]
#[ignore = "a million hook calls at 256 live jobs; CI's scale-check job runs it in release"]
fn every_scheduling_decision_is_pinned_at_scale() {
    let (digests, calls) = run_all(SCALE_LIVE, SCALE_STEPS);
    assert!(calls >= 1_000_000, "the script made only {calls} hook calls");
    check(&digests, &SCALE_PINS);
}
