//! The lifecycle manager: residency, state machine and canary control.

use crate::{DeploymentPlan, LifecycleConfig, LifecycleError, ProfileBinder, VersionSpec};
use gpusim::{Allocation, MemoryPool};
use models::LoadedModel;
use simtime::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use trace::TraceKind;

/// Warm-up runs a freshly loaded version executes (one graph pass each)
/// before it starts serving — TF-Serving's loader warm-up.
const WARMUP_RUNS: u32 = 2;

/// A canary candidate is promoted iff its mean run latency stays within
/// `(1 + CANARY_TOLERANCE)` × the incumbent's mean; otherwise it is rolled
/// back.
pub const CANARY_TOLERANCE: f64 = 0.25;

/// Every `CANARY_STRIDE`-th new run of a model under canary goes to the
/// candidate version, the rest to the incumbent: a deterministic traffic
/// split.
pub const CANARY_STRIDE: u64 = 3;

/// Completed runs each arm of a canary must observe before the
/// promote-or-rollback decision that [`CANARY_TOLERANCE`] gates.
pub const CANARY_MIN_RUNS: u32 = 4;

/// `"{name}@v{version}"`: the name a version's runs register and its
/// profile binds under, built in one allocation sized up front.
pub fn versioned_name(name: &str, version: u32) -> String {
    let digits = version.checked_ilog10().unwrap_or(0) as usize + 1;
    let mut s = String::with_capacity(name.len() + "@v".len() + digits);
    s.push_str(name);
    s.push_str("@v");
    write!(s, "{version}").expect("writing to a String cannot fail");
    s
}

/// Identifies one version of one managed model: indexes into the
/// [`DeploymentTable`]. `version` is 1-based, matching TF-Serving
/// conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionKey {
    /// Deployment index in plan declaration order.
    pub model: u32,
    /// Version number (1-based).
    pub version: u32,
}

/// A deployment plan resolved once per run and shared by every device's
/// manager: each deployment's versions, in plan order, with their
/// servables and publish instants. A version's servable is named
/// `"{name}@v{n}"`, the name its runs register and its profile binds under.
#[derive(Debug)]
pub struct DeploymentTable {
    /// `versions[mi][k]` is version `k + 1` of deployment `mi`, its
    /// servable renamed `"{name}@v{k + 1}"`.
    versions: Vec<Vec<VersionSpec>>,
}

impl DeploymentTable {
    /// Resolves `plan`.
    ///
    /// # Errors
    ///
    /// The first [`LifecycleError`] of [`DeploymentPlan::validate`].
    pub fn new(plan: &DeploymentPlan) -> Result<DeploymentTable, LifecycleError> {
        plan.validate()?;
        let versions = plan.models.iter().map(|dep| {
            let versioned = dep.versions.iter().enumerate().map(|(k, v)| {
                let m = &v.model;
                let name = versioned_name(&dep.name, k as u32 + 1);
                let graph = Arc::clone(m.graph());
                let servable = LoadedModel::from_parts(
                    name, m.kind(), m.batch(), graph, m.weights_bytes(), m.activation_bytes(),
                );
                VersionSpec::new(servable).published_at(v.publish_at)
            });
            versioned.collect()
        });
        Ok(DeploymentTable { versions: versions.collect() })
    }

    /// Number of deployments (dense indices `0..deployments()`).
    pub fn deployments(&self) -> usize {
        self.versions.len()
    }

    /// The servable behind `key`, named `"{name}@v{n}"`.
    pub fn version(&self, key: VersionKey) -> &LoadedModel {
        &self.versions[key.model as usize][key.version as usize - 1].model
    }

    /// Requests a tick at every version's publish instant. Call once
    /// before the simulation starts.
    pub fn startup(&self, fx: &mut Effects) {
        for v in self.versions.iter().flatten() {
            fx.ticks.push(v.publish_at);
        }
    }
}

/// The aspired-versions state machine. Evicted and drained versions return
/// to `Unloaded` and may be reloaded later on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VersionState {
    /// Not resident on the device.
    #[default]
    Unloaded,
    /// Weights are transferring to the device.
    Loading,
    /// Resident; executing warm-up runs before accepting traffic.
    Warming,
    /// Resident and eligible to serve new runs.
    Serving,
    /// No new runs; waiting for in-flight runs to finish before unload.
    Draining,
}

/// The routing decision for one new `Session::Run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Issue the run against this version now.
    Issue(VersionKey),
    /// No version is servable yet; the client is parked and will be woken
    /// (via [`Effects::wake`]) when one starts serving.
    Wait,
}

/// Side effects of a manager call, for the engine to apply: trace events
/// (recorded as they are), parked clients to wake (→ retry their next run)
/// and future instants at which [`LifecycleManager::tick`] must run.
#[derive(Debug, Clone, Default)]
pub struct Effects {
    /// Lifecycle transitions as trace events, in occurrence order.
    pub events: Vec<TraceKind>,
    /// Parked clients to wake, in park order.
    pub wake: Vec<u32>,
    /// Instants at which the engine must call `tick`.
    pub ticks: Vec<SimTime>,
}

impl Effects {
    /// True when the call produced no effects at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.wake.is_empty() && self.ticks.is_empty()
    }
}

/// One version's state on one device.
#[derive(Debug, Default)]
struct VersionRt {
    state: VersionState,
    weights: Option<Allocation>,
    /// Next state-machine transition instant (load or warm-up completion).
    due: Option<SimTime>,
    warmups_done: u32,
    inflight: u32,
    /// Woken-but-not-yet-issued clients bound for this version. A wake is
    /// delivered through [`Effects::wake`] *after* the manager call that
    /// produced it returns, so without this credit a version could finish
    /// warming and be evicted for a pending load in the same `tick` —
    /// before its parked clients ever issue a run — and the whole set of
    /// deployments would churn loads forever without serving anything.
    /// Counted like `inflight` by the eviction policy.
    wake_pending: u32,
    last_used: SimTime,
    /// Completed-run count in the current canary window.
    stat_runs: u32,
    /// Summed run latency (ns) in the current canary window.
    stat_lat_ns: u64,
}

/// One deployment's state on one device.
#[derive(Debug, Default)]
struct ModelRt {
    versions: Vec<VersionRt>,
    /// Index of the version currently serving, if any.
    serving: Option<usize>,
    /// Index of the active canary candidate, if any.
    candidate: Option<usize>,
    /// Index of the newest published (aspired) version.
    aspired: usize,
    /// How many versions have been published so far.
    published: usize,
    /// Runs issued since the canary split activated (drives the stride).
    issued: u64,
    /// Clients parked until a version starts serving.
    waiters: VecDeque<u32>,
}

/// The deterministic model-lifecycle manager of one device. See the crate
/// docs for the overall design; all iteration is over dense vectors in
/// declaration order, so identical call sequences produce identical
/// effects.
#[derive(Debug)]
pub struct LifecycleManager {
    /// The plan, shared with every other device's manager.
    table: Arc<DeploymentTable>,
    load_gbps: f64,
    binder: Option<Arc<dyn ProfileBinder>>,
    /// The device memory budget (bytes); resident weights never exceed it.
    budget: u64,
    /// Currently resident weight bytes across all versions.
    resident: u64,
    /// This device's state of each deployment, in table order.
    models: Vec<ModelRt>,
    /// Loads that did not fit even after eviction, retried on every free.
    pending_loads: Vec<VersionKey>,
}

impl LifecycleManager {
    /// Builds a manager over `table`, the plan of `cfg` resolved, for a
    /// device with `budget` bytes of memory.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError::OversizedVersion`] when a version's
    /// weights exceed the whole budget (it could never serve).
    pub fn new(
        table: Arc<DeploymentTable>,
        cfg: &LifecycleConfig,
        budget: u64,
    ) -> Result<Self, LifecycleError> {
        for dep in &cfg.plan.models {
            for (k, spec) in dep.versions.iter().enumerate() {
                if spec.model.weights_bytes() > budget {
                    return Err(LifecycleError::OversizedVersion {
                        model: dep.name.clone(),
                        version: (k + 1) as u32,
                        bytes: spec.model.weights_bytes(),
                        budget,
                    });
                }
            }
        }
        let models = table.versions.iter().map(|versions| ModelRt {
            versions: versions.iter().map(|_| VersionRt::default()).collect(),
            ..ModelRt::default()
        });
        Ok(LifecycleManager {
            models: models.collect(),
            table,
            load_gbps: cfg.load_gbps,
            binder: cfg.binder.clone(),
            budget,
            resident: 0,
            pending_loads: Vec::new(),
        })
    }

    /// The servable of version `vi` (0-based) of deployment `mi`.
    fn servable(&self, mi: usize, vi: usize) -> &LoadedModel {
        &self.table.versions[mi][vi].model
    }

    /// Currently resident weight bytes across all managed versions.
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    /// Current state of a version.
    pub fn state(&self, key: VersionKey) -> VersionState {
        self.models[key.model as usize].versions[key.version as usize - 1].state
    }

    /// The serving version of deployment `mi`, if any.
    pub fn serving_version(&self, mi: usize) -> Option<VersionKey> {
        self.models[mi]
            .serving
            .map(|vi| VersionKey { model: mi as u32, version: vi as u32 + 1 })
    }

    /// True when the aspired version of deployment `mi` is already on its
    /// way to serving (Loading or Warming): an arrival routed here will
    /// wait, but pays no *new* transfer.
    pub fn is_loading(&self, mi: usize) -> bool {
        let m = &self.models[mi];
        matches!(
            m.versions[m.aspired].state,
            VersionState::Loading | VersionState::Warming
        )
    }

    /// Weight bytes of the aspired version of deployment `mi` — what a
    /// fresh load here would transfer.
    pub fn aspired_weights_bytes(&self, mi: usize) -> u64 {
        self.servable(mi, self.models[mi].aspired).weights_bytes()
    }

    /// The effective load bandwidth (GB/s), for router transfer estimates.
    pub fn load_gbps(&self) -> f64 {
        self.load_gbps
    }

    /// Asks for the aspired version of deployment `mi` to become resident
    /// (the cluster reconfiguration "load/migrate-in" command). Starts the
    /// load when the version is `Unloaded` and returns `true`; returns
    /// `false` when it is already resident, loading, or draining (a drain
    /// must finish before a reload).
    pub fn request_load(
        &mut self,
        mi: usize,
        now: SimTime,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) -> bool {
        let a = self.models[mi].aspired;
        if self.models[mi].versions[a].state != VersionState::Unloaded {
            return false;
        }
        self.start_load(mi, a, now, pool, fx);
        true
    }

    /// Asks for deployment `mi` to stop serving on this device (the
    /// cluster reconfiguration "drain/migrate-out" command). Refuses —
    /// returning `false` — when nothing is serving, when clients are
    /// parked or woken-but-not-yet-issued here (they must issue first),
    /// or while a canary is deciding. Otherwise begins the drain and
    /// returns `true`; the weights free once in-flight runs finish.
    pub fn request_drain(
        &mut self,
        mi: usize,
        now: SimTime,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) -> bool {
        let m = &self.models[mi];
        let Some(s) = m.serving else { return false };
        if m.versions[s].state != VersionState::Serving {
            return false; // already draining, waiting out in-flight runs
        }
        if !m.waiters.is_empty() || m.versions[s].wake_pending > 0 || m.candidate.is_some() {
            return false;
        }
        self.begin_drain(mi, s, pool, fx);
        self.pump_pending(now, pool, fx);
        true
    }

    /// Returns one wake credit on deployment `mi`'s serving version: a
    /// client woken by this manager re-routed to a different device, so
    /// the reservation held for its issue must not pin the version
    /// against eviction forever. No-op when nothing is serving.
    pub fn cancel_wake_credit(&mut self, mi: usize) {
        if let Some(s) = self.models[mi].serving {
            let v = &mut self.models[mi].versions[s];
            v.wake_pending = v.wake_pending.saturating_sub(1);
        }
    }

    /// Routes one new run of deployment `mi` for `client`. Either issues a
    /// version (serving version, or the canary candidate for every
    /// `stride`-th run while a canary is active) or parks the client until
    /// a version starts serving, kicking off the aspired version's load if
    /// needed.
    pub fn route(
        &mut self,
        mi: usize,
        client: u32,
        now: SimTime,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) -> Route {
        if let Some(s) = self.models[mi].serving {
            // Demand can return while the replica drains: the weights are
            // still resident (they free only at unload), so serving this
            // run here is strictly cheaper than finishing the drain and
            // paying the transfer again. Routing cancels the drain.
            if self.models[mi].versions[s].state == VersionState::Draining {
                self.models[mi].versions[s].state = VersionState::Serving;
            }
            let m = &self.models[mi];
            debug_assert_eq!(m.versions[s].state, VersionState::Serving);
            let pick = match m.candidate {
                Some(c) if m.versions[c].state == VersionState::Serving => {
                    let m = &mut self.models[mi];
                    m.issued += 1;
                    if m.issued.is_multiple_of(CANARY_STRIDE) {
                        c
                    } else {
                        s
                    }
                }
                _ => s,
            };
            return self.issue(mi, pick, now);
        }
        let target = self.models[mi].aspired;
        if self.models[mi].versions[target].state == VersionState::Unloaded {
            self.start_load(mi, target, now, pool, fx);
        }
        self.models[mi].waiters.push_back(client);
        Route::Wait
    }

    /// Like [`route`](Self::route), but resolves the request to the
    /// *cheapest* resident version — the Serving version with the smallest
    /// total GPU time — instead of the canary split. The control plane's
    /// degradation ladder routes through this while elevated, trading
    /// answer fidelity for GPU time. Falls back to [`route`](Self::route)
    /// when no version is serving.
    pub fn route_cheapest(
        &mut self,
        mi: usize,
        client: u32,
        now: SimTime,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) -> Route {
        let pick = self.models[mi]
            .versions
            .iter()
            .enumerate()
            .filter(|(_, v)| v.state == VersionState::Serving)
            .min_by_key(|&(i, _)| (self.servable(mi, i).graph().total_gpu_time(), i))
            .map(|(i, _)| i);
        match pick {
            Some(vi) => self.issue(mi, vi, now),
            None => self.route(mi, client, now, pool, fx),
        }
    }

    /// Issues a run against version `vi` of deployment `mi`, spending a
    /// wake credit if one is held.
    fn issue(&mut self, mi: usize, vi: usize, now: SimTime) -> Route {
        let v = &mut self.models[mi].versions[vi];
        v.inflight += 1;
        v.wake_pending = v.wake_pending.saturating_sub(1);
        v.last_used = now;
        Route::Issue(VersionKey { model: mi as u32, version: vi as u32 + 1 })
    }

    /// Records a run completion against `key`. `latency` is `None` for
    /// cancelled runs (excluded from canary statistics). Advances the
    /// canary decision, completes drains and retries pending loads.
    pub fn run_finished(
        &mut self,
        key: VersionKey,
        now: SimTime,
        latency: Option<SimDuration>,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) {
        let mi = key.model as usize;
        let vi = key.version as usize - 1;
        {
            let v = &mut self.models[mi].versions[vi];
            assert!(v.inflight > 0, "run_finished with no runs in flight");
            v.inflight -= 1;
            v.last_used = now;
        }
        let m = &self.models[mi];
        if let (Some(s), Some(c)) = (m.serving, m.candidate) {
            let armed = m.versions[s].state == VersionState::Serving
                && m.versions[c].state == VersionState::Serving;
            if armed && (vi == s || vi == c) {
                if let Some(lat) = latency {
                    let v = &mut self.models[mi].versions[vi];
                    v.stat_runs += 1;
                    v.stat_lat_ns += lat.as_nanos();
                }
                self.maybe_decide_canary(mi, now, pool, fx);
            }
        }
        let v = &self.models[mi].versions[vi];
        if v.state == VersionState::Draining && v.inflight == 0 {
            self.unload(mi, vi, pool, fx);
            self.pump_pending(now, pool, fx);
        } else if v.inflight == 0 {
            // The version just went idle: it is now an eviction candidate,
            // so queued loads that were starved for memory may fit. The
            // cost-aware LRU ranks this freshest version last, so a retry
            // prefers reclaiming staler residents first.
            self.pump_pending(now, pool, fx);
        }
    }

    /// Advances time-driven transitions up to `now`: version publishes,
    /// load completions, warm-up runs and retried loads.
    pub fn tick(&mut self, now: SimTime, pool: &mut MemoryPool, fx: &mut Effects) {
        for mi in 0..self.models.len() {
            while self.table.versions[mi]
                .get(self.models[mi].published)
                .is_some_and(|v| v.publish_at <= now)
            {
                let v = self.models[mi].published;
                self.models[mi].published += 1;
                self.publish(mi, v, now, pool, fx);
            }
        }
        for mi in 0..self.models.len() {
            for vi in 0..self.models[mi].versions.len() {
                while self.models[mi].versions[vi].due.is_some_and(|t| t <= now) {
                    self.advance(mi, vi, now, pool, fx);
                }
            }
        }
        self.pump_pending(now, pool, fx);
    }

    /// A newly published version becomes the aspired version. With a
    /// serving incumbent this starts a canary; an unfinished older canary
    /// is superseded (rolled back) first.
    fn publish(
        &mut self,
        mi: usize,
        vi: usize,
        now: SimTime,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) {
        if let Some(old) = self.models[mi].candidate.take() {
            if old != vi {
                let (model, version) = (mi as u32, old as u32 + 1);
                fx.events.push(TraceKind::CanaryRollback { model, version, cand_us: 0, base_us: 0 });
                if self.models[mi].versions[old].state == VersionState::Serving {
                    self.begin_drain(mi, old, pool, fx);
                    self.pump_pending(now, pool, fx);
                }
            }
        }
        self.models[mi].aspired = vi;
        if self.models[mi].serving.is_none() {
            // No incumbent: load on demand, or immediately if clients are
            // already parked waiting for this model.
            if !self.models[mi].waiters.is_empty()
                && self.models[mi].versions[vi].state == VersionState::Unloaded
            {
                self.start_load(mi, vi, now, pool, fx);
            }
        } else {
            self.maybe_start_canary(mi, now, pool, fx);
        }
    }

    /// Starts a canary for the aspired version when an incumbent serves
    /// and no canary is active.
    fn maybe_start_canary(
        &mut self,
        mi: usize,
        now: SimTime,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) {
        let m = &self.models[mi];
        let (Some(s), None) = (m.serving, m.candidate) else { return };
        let a = m.aspired;
        if a == s {
            return;
        }
        self.models[mi].candidate = Some(a);
        match self.models[mi].versions[a].state {
            VersionState::Unloaded => {
                self.start_load(mi, a, now, pool, fx);
            }
            VersionState::Serving => self.arm_canary(mi),
            // Loading/Warming: the split arms when it reaches Serving.
            // Draining cannot happen: a draining version is never aspired.
            _ => {}
        }
    }

    /// Resets both arms' statistics and the stride counter: the split is
    /// live from this instant.
    fn arm_canary(&mut self, mi: usize) {
        let m = &mut self.models[mi];
        m.issued = 0;
        let (s, c) = (m.serving.expect("armed without incumbent"), m.candidate.expect("armed without candidate"));
        for vi in [s, c] {
            m.versions[vi].stat_runs = 0;
            m.versions[vi].stat_lat_ns = 0;
        }
    }

    /// Promotes or rolls back once both arms observed enough runs.
    fn maybe_decide_canary(
        &mut self,
        mi: usize,
        now: SimTime,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) {
        let m = &self.models[mi];
        let (Some(s), Some(c)) = (m.serving, m.candidate) else { return };
        let (inc, cand) = (&m.versions[s], &m.versions[c]);
        if inc.stat_runs < CANARY_MIN_RUNS || cand.stat_runs < CANARY_MIN_RUNS {
            return;
        }
        let base_ns = inc.stat_lat_ns / inc.stat_runs as u64;
        let cand_ns = cand.stat_lat_ns / cand.stat_runs as u64;
        let healthy = cand_ns as f64 <= base_ns as f64 * (1.0 + CANARY_TOLERANCE);
        let (model, version) = (mi as u32, c as u32 + 1);
        let (cand_us, base_us) = (cand_ns / 1_000, base_ns / 1_000);
        self.models[mi].candidate = None;
        if healthy {
            self.models[mi].serving = Some(c);
            self.models[mi].aspired = c;
            fx.events.push(TraceKind::CanaryPromote { model, version, cand_us, base_us });
            self.begin_drain(mi, s, pool, fx);
        } else {
            self.models[mi].aspired = s;
            fx.events.push(TraceKind::CanaryRollback { model, version, cand_us, base_us });
            self.begin_drain(mi, c, pool, fx);
        }
        self.pump_pending(now, pool, fx);
    }

    /// Runs one due state-machine transition for `(mi, vi)`.
    fn advance(
        &mut self,
        mi: usize,
        vi: usize,
        now: SimTime,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) {
        let graph = self.table.versions[mi][vi].model.graph();
        let v = &mut self.models[mi].versions[vi];
        match v.state {
            VersionState::Loading => {
                v.state = VersionState::Warming;
                v.warmups_done = 0;
                let due = now + graph.total_gpu_time();
                v.due = Some(due);
                fx.ticks.push(due);
            }
            VersionState::Warming => {
                v.warmups_done += 1;
                let done = v.warmups_done;
                let (model, version) = (mi as u32, vi as u32 + 1);
                fx.events.push(TraceKind::WarmupRun { model, version, run: done });
                if done >= WARMUP_RUNS {
                    v.due = None;
                    self.on_serving(mi, vi, now, pool, fx);
                } else {
                    let due = now + graph.total_gpu_time();
                    v.due = Some(due);
                    fx.ticks.push(due);
                }
            }
            // Unloaded/Serving/Draining have no timed transitions.
            _ => {
                v.due = None;
            }
        }
    }

    /// A version finished warming: bind its profile, take over serving if
    /// the model has none, wake parked clients, arm a pending canary.
    fn on_serving(
        &mut self,
        mi: usize,
        vi: usize,
        now: SimTime,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) {
        {
            let v = &mut self.models[mi].versions[vi];
            v.state = VersionState::Serving;
            v.last_used = now;
        }
        if let Some(b) = &self.binder {
            let m = self.servable(mi, vi);
            b.bind(m.name(), m.batch());
        }
        if self.models[mi].candidate == Some(vi) {
            self.arm_canary(mi);
        } else if self.models[mi].serving.is_none() {
            self.models[mi].serving = Some(vi);
            while let Some(client) = self.models[mi].waiters.pop_front() {
                fx.wake.push(client);
                self.models[mi].versions[vi].wake_pending += 1;
            }
            // A version published while this one was loading starts its
            // canary now that an incumbent exists.
            self.maybe_start_canary(mi, now, pool, fx);
        }
        // Otherwise: superseded while loading — resident but idle, and
        // reclaimed by cost-aware eviction when memory is needed.
    }

    /// Stops new traffic to `(mi, vi)`; unloads immediately when nothing
    /// is in flight.
    fn begin_drain(&mut self, mi: usize, vi: usize, pool: &mut MemoryPool, fx: &mut Effects) {
        let v = &mut self.models[mi].versions[vi];
        debug_assert_eq!(v.state, VersionState::Serving);
        v.state = VersionState::Draining;
        let inflight = v.inflight;
        fx.events.push(TraceKind::Drain { model: mi as u32, version: vi as u32 + 1, inflight });
        if inflight == 0 {
            self.unload(mi, vi, pool, fx);
        }
    }

    /// Frees a drained version's weights.
    fn unload(&mut self, mi: usize, vi: usize, pool: &mut MemoryPool, fx: &mut Effects) {
        let v = &mut self.models[mi].versions[vi];
        debug_assert_eq!(v.state, VersionState::Draining);
        debug_assert_eq!(v.inflight, 0);
        let bytes = self.release(mi, vi, pool);
        fx.events.push(TraceKind::Unload { model: mi as u32, version: vi as u32 + 1, bytes });
    }

    /// Returns `(mi, vi)` to `Unloaded`, freeing its allocation and
    /// retiring its profile. Returns the freed byte count.
    fn release(&mut self, mi: usize, vi: usize, pool: &mut MemoryPool) -> u64 {
        let v = &mut self.models[mi].versions[vi];
        let alloc = v.weights.take().expect("resident version without allocation");
        let bytes = alloc.bytes();
        pool.free(alloc);
        v.state = VersionState::Unloaded;
        v.due = None;
        v.warmups_done = 0;
        v.wake_pending = 0;
        self.resident -= bytes;
        if self.models[mi].serving == Some(vi) {
            self.models[mi].serving = None;
        }
        if let Some(b) = &self.binder {
            let m = self.servable(mi, vi);
            b.unbind(m.name(), m.batch());
        }
        bytes
    }

    /// Starts loading `(mi, vi)`, evicting idle versions (cost-aware LRU)
    /// until the allocation fits. Queues the load when it cannot fit even
    /// after eviction.
    fn start_load(
        &mut self,
        mi: usize,
        vi: usize,
        now: SimTime,
        pool: &mut MemoryPool,
        fx: &mut Effects,
    ) {
        debug_assert_eq!(self.models[mi].versions[vi].state, VersionState::Unloaded);
        let bytes = self.servable(mi, vi).weights_bytes();
        loop {
            match pool.alloc(bytes) {
                Ok(alloc) => {
                    let latency = MemoryPool::transfer_time(bytes, self.load_gbps);
                    let due = now + latency;
                    let v = &mut self.models[mi].versions[vi];
                    v.weights = Some(alloc);
                    v.state = VersionState::Loading;
                    v.due = Some(due);
                    self.resident += bytes;
                    assert!(
                        self.resident <= self.budget,
                        "resident model bytes {} exceed the {}-byte device budget",
                        self.resident,
                        self.budget
                    );
                    let (model, version) = (mi as u32, vi as u32 + 1);
                    fx.events.push(TraceKind::VersionLoad { model, version, bytes });
                    fx.ticks.push(due);
                    return;
                }
                Err(_) => {
                    let Some((emi, evi)) = self.pick_victim() else {
                        let key = VersionKey { model: mi as u32, version: vi as u32 + 1 };
                        if !self.pending_loads.contains(&key) {
                            self.pending_loads.push(key);
                        }
                        return;
                    };
                    let freed = self.evict(emi, evi, pool, fx);
                    debug_assert!(freed > 0);
                }
            }
        }
    }

    /// Picks the eviction victim among idle serving versions: maximum
    /// staleness-per-reload-cost, compared exactly via u128
    /// cross-multiplication; ties break to the smallest (model, version).
    /// Active canary arms and incumbents with parked clients are exempt.
    fn pick_victim(&self) -> Option<(usize, usize)> {
        let now_candidates = self.models.iter().enumerate().flat_map(|(mi, m)| {
            m.versions.iter().enumerate().filter_map(move |(vi, v)| {
                let idle =
                    v.state == VersionState::Serving && v.inflight == 0 && v.wake_pending == 0;
                let canary_arm =
                    m.candidate.is_some() && (m.candidate == Some(vi) || m.serving == Some(vi));
                let needed_incumbent = m.serving == Some(vi) && !m.waiters.is_empty();
                (idle && !canary_arm && !needed_incumbent).then_some((mi, vi, v))
            })
        });
        let mut best: Option<(usize, usize, u128, u128)> = None;
        for (mi, vi, v) in now_candidates {
            let staleness = v.last_used.as_nanos() as u128; // older ⇒ smaller
            let bytes = self.servable(mi, vi).weights_bytes();
            let cost = MemoryPool::transfer_time(bytes, self.load_gbps)
                .as_nanos()
                .max(1) as u128;
            // Lower last-used-per-cost wins: evict the stalest version
            // whose reload is cheapest. score(a) < score(b) ⇔
            // a.last_used · b.cost < b.last_used · a.cost.
            let better = match &best {
                None => true,
                Some((bmi, bvi, blast, bcost)) => {
                    let lhs = staleness * bcost;
                    let rhs = blast * cost;
                    lhs < rhs || (lhs == rhs && (mi, vi) < (*bmi, *bvi))
                }
            };
            if better {
                best = Some((mi, vi, staleness, cost));
            }
        }
        best.map(|(mi, vi, _, _)| (mi, vi))
    }

    /// Evicts `(mi, vi)` and returns the freed byte count.
    fn evict(&mut self, mi: usize, vi: usize, pool: &mut MemoryPool, fx: &mut Effects) -> u64 {
        let bytes = self.release(mi, vi, pool);
        fx.events.push(TraceKind::Evict { model: mi as u32, version: vi as u32 + 1, bytes });
        bytes
    }

    /// Retries queued loads in arrival order, dropping ones no longer
    /// wanted (superseded while waiting for memory).
    fn pump_pending(&mut self, now: SimTime, pool: &mut MemoryPool, fx: &mut Effects) {
        if self.pending_loads.is_empty() {
            return;
        }
        let queued = std::mem::take(&mut self.pending_loads);
        for key in queued {
            let (mi, vi) = (key.model as usize, key.version as usize - 1);
            let m = &self.models[mi];
            let wanted = m.aspired == vi || m.candidate == Some(vi);
            if wanted && m.versions[vi].state == VersionState::Unloaded {
                self.start_load(mi, vi, now, pool, fx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeploymentPlan, ModelDeployment};
    use std::collections::BTreeSet;

    fn renamed(name: &str, m: LoadedModel) -> LoadedModel {
        LoadedModel::from_parts(
            name,
            None,
            m.batch(),
            Arc::clone(m.graph()),
            m.weights_bytes(),
            m.activation_bytes(),
        )
    }

    /// A tiny deterministic harness driving the manager directly: keeps
    /// the pending tick set and advances virtual time tick by tick.
    struct Sim {
        table: Arc<DeploymentTable>,
        mgr: LifecycleManager,
        pool: MemoryPool,
        now: SimTime,
        ticks: BTreeSet<SimTime>,
        events: Vec<TraceKind>,
        woken: Vec<u32>,
    }

    impl Sim {
        fn new(cfg: LifecycleConfig, budget: u64) -> Sim {
            let table = Arc::new(DeploymentTable::new(&cfg.plan).expect("valid plan"));
            let mgr = LifecycleManager::new(Arc::clone(&table), &cfg, budget).expect("fits");
            let mut fx = Effects::default();
            table.startup(&mut fx);
            let mut sim = Sim {
                table,
                mgr,
                pool: MemoryPool::new(budget),
                now: SimTime::ZERO,
                ticks: BTreeSet::new(),
                events: Vec::new(),
                woken: Vec::new(),
            };
            sim.absorb(fx);
            sim
        }

        fn absorb(&mut self, fx: Effects) {
            self.events.extend(fx.events.iter().copied());
            self.woken.extend(fx.wake.iter().copied());
            for t in fx.ticks {
                self.ticks.insert(t.max(self.now));
            }
            assert!(self.mgr.resident_bytes() <= self.pool.capacity());
            // Only the manager allocates in this harness: its residency
            // counter and the pool's accounting must agree exactly.
            assert_eq!(self.mgr.resident_bytes(), self.pool.used());
        }

        /// Runs every due tick up to and including `until`.
        fn run_until(&mut self, until: SimTime) {
            while let Some(&t) = self.ticks.iter().next() {
                if t > until {
                    break;
                }
                self.ticks.remove(&t);
                self.now = t;
                let mut fx = Effects::default();
                self.mgr.tick(self.now, &mut self.pool, &mut fx);
                self.absorb(fx);
            }
            if until != SimTime::MAX {
                self.now = until;
            }
        }

        /// Routes a run of the `mi`-th deployment in plan order.
        fn route(&mut self, mi: usize, client: u32) -> Route {
            let mut fx = Effects::default();
            let r = self.mgr.route(mi, client, self.now, &mut self.pool, &mut fx);
            self.absorb(fx);
            r
        }

        fn finish(&mut self, key: VersionKey, latency: SimDuration) {
            let mut fx = Effects::default();
            self.mgr
                .run_finished(key, self.now, Some(latency), &mut self.pool, &mut fx);
            self.absorb(fx);
        }

        fn drain_ticks(&mut self) {
            self.run_until(SimTime::MAX);
        }
    }

    fn one_model_plan() -> DeploymentPlan {
        DeploymentPlan::new()
            .with_model(ModelDeployment::new("svc", renamed("svc", models::mini::tiny(4))))
    }

    #[test]
    fn load_warm_serve_happy_path() {
        let cfg = LifecycleConfig::new(one_model_plan());
        let mut sim = Sim::new(cfg, 64 << 20);
        sim.run_until(SimTime::ZERO);
        // First route finds nothing resident: the client parks and the
        // load begins.
        assert_eq!(sim.route(0, 0), Route::Wait);
        let key = VersionKey { model: 0, version: 1 };
        assert_eq!(sim.mgr.state(key), VersionState::Loading);
        sim.drain_ticks();
        assert_eq!(sim.mgr.state(key), VersionState::Serving);
        assert_eq!(sim.woken, vec![0]);
        let warmups = sim
            .events
            .iter()
            .filter(|e| matches!(e, TraceKind::WarmupRun { .. }))
            .count();
        assert_eq!(warmups, 2);
        // Woken client now gets a real issue.
        assert_eq!(sim.route(0, 0), Route::Issue(key));
        assert_eq!(sim.table.version(key).name(), "svc@v1");
    }

    #[test]
    fn eviction_makes_room_and_respects_budget() {
        // Three 1 MiB models on a pool that only fits two.
        let plan = DeploymentPlan::new()
            .with_model(ModelDeployment::new("a", renamed("a", models::mini::tiny(4))))
            .with_model(ModelDeployment::new("b", renamed("b", models::mini::tiny(4))))
            .with_model(ModelDeployment::new("c", renamed("c", models::mini::tiny(4))));
        let budget = 2 * (1 << 20) + (64 << 10);
        let mut sim = Sim::new(LifecycleConfig::new(plan), budget);
        sim.run_until(SimTime::ZERO);
        // Each woken client answers its wake with a real run (as the
        // engine does); an unanswered wake pins the version against
        // eviction.
        let (ka, kb) = (
            VersionKey { model: 0, version: 1 },
            VersionKey { model: 1, version: 1 },
        );
        assert_eq!(sim.route(0, 0), Route::Wait);
        sim.drain_ticks();
        assert_eq!(sim.route(0, 0), Route::Issue(ka));
        sim.finish(ka, SimDuration::from_micros(50));
        sim.now += SimDuration::from_millis(1);
        assert_eq!(sim.route(1, 1), Route::Wait);
        sim.drain_ticks();
        assert_eq!(sim.route(1, 1), Route::Issue(kb));
        sim.finish(kb, SimDuration::from_micros(50));
        // Loading the third evicts the stalest idle version ("a").
        sim.now += SimDuration::from_millis(1);
        assert_eq!(sim.route(2, 2), Route::Wait);
        assert!(sim.events.iter().any(|e| matches!(
            e,
            TraceKind::Evict { model: 0, version: 1, .. }
        )));
        sim.drain_ticks();
        assert_eq!(
            sim.mgr.state(VersionKey { model: 2, version: 1 }),
            VersionState::Serving
        );
        assert_eq!(
            sim.mgr.state(VersionKey { model: 0, version: 1 }),
            VersionState::Unloaded
        );
        // "a" reloads on demand afterwards, evicting someone else.
        sim.now += SimDuration::from_millis(1);
        assert_eq!(sim.route(0, 0), Route::Wait);
        sim.drain_ticks();
        assert_eq!(
            sim.mgr.state(VersionKey { model: 0, version: 1 }),
            VersionState::Serving
        );
    }

    #[test]
    fn eviction_tie_breaks_to_smallest_model_version_pair() {
        // Two identical idle versions with equal reload cost AND equal
        // last-used instant: the staleness-per-cost scores tie exactly, so
        // the victim must come from the deterministic (model, version)
        // order — the dense-vector scan, never hash-map iteration. Pin it:
        // the victim is the smallest pair, here model 0 ("a").
        let plan = DeploymentPlan::new()
            .with_model(ModelDeployment::new("a", renamed("a", models::mini::tiny(4))))
            .with_model(ModelDeployment::new("b", renamed("b", models::mini::tiny(4))))
            .with_model(ModelDeployment::new("c", renamed("c", models::mini::tiny(4))));
        let budget = 2 * (1 << 20) + (64 << 10);
        let mut sim = Sim::new(LifecycleConfig::new(plan), budget);
        sim.run_until(SimTime::ZERO);
        let (ka, kb) = (
            VersionKey { model: 0, version: 1 },
            VersionKey { model: 1, version: 1 },
        );
        assert_eq!(sim.route(0, 0), Route::Wait);
        sim.drain_ticks();
        assert_eq!(sim.route(0, 0), Route::Issue(ka));
        sim.now += SimDuration::from_millis(1);
        assert_eq!(sim.route(1, 1), Route::Wait);
        sim.drain_ticks();
        assert_eq!(sim.route(1, 1), Route::Issue(kb));
        // Finish both at the same instant: equal last_used, equal weights
        // (equal transfer cost) — a perfect tie.
        sim.now += SimDuration::from_millis(1);
        sim.finish(ka, SimDuration::from_micros(50));
        sim.finish(kb, SimDuration::from_micros(50));
        sim.now += SimDuration::from_millis(1);
        assert_eq!(sim.route(2, 2), Route::Wait);
        let victim = sim
            .events
            .iter()
            .find_map(|e| match e {
                &TraceKind::Evict { model, version, .. } => Some(VersionKey { model, version }),
                _ => None,
            })
            .expect("the third load must evict someone");
        assert_eq!(victim, ka, "tied scores must evict the smallest (model, version)");
        assert_eq!(sim.mgr.state(kb), VersionState::Serving);
    }

    #[test]
    fn request_load_and_drain_drive_residency() {
        let plan = DeploymentPlan::new()
            .with_model(ModelDeployment::new("a", renamed("a", models::mini::tiny(4))))
            .with_model(ModelDeployment::new("b", renamed("b", models::mini::tiny(4))));
        let mut sim = Sim::new(LifecycleConfig::new(plan), 64 << 20);
        sim.run_until(SimTime::ZERO);
        let mi = 0;
        assert_eq!(sim.table.deployments(), 2);
        assert!(sim.mgr.serving_version(mi).is_none());
        // request_load starts the transfer; a second request is a no-op.
        let mut fx = Effects::default();
        assert!(sim.mgr.request_load(mi, sim.now, &mut sim.pool, &mut fx));
        assert!(!sim.mgr.request_load(mi, sim.now, &mut sim.pool, &mut fx));
        assert!(sim.mgr.is_loading(mi));
        sim.absorb(fx);
        sim.drain_ticks();
        let ka = VersionKey { model: 0, version: 1 };
        assert_eq!(sim.mgr.serving_version(mi), Some(ka));
        // In-flight runs do not refuse a drain, they only delay the
        // unload: issue one, drain, and the weights free at completion.
        assert_eq!(sim.route(0, 0), Route::Issue(ka));
        let mut fx = Effects::default();
        assert!(sim.mgr.request_drain(mi, sim.now, &mut sim.pool, &mut fx));
        assert!(!sim.mgr.request_drain(mi, sim.now, &mut sim.pool, &mut fx), "already draining");
        sim.absorb(fx);
        assert_eq!(sim.mgr.state(ka), VersionState::Draining);
        sim.finish(ka, SimDuration::from_micros(50));
        assert_eq!(sim.mgr.state(ka), VersionState::Unloaded);
        assert_eq!(sim.mgr.resident_bytes(), 0);
    }

    #[test]
    fn routing_during_a_drain_cancels_it() {
        let plan = DeploymentPlan::new()
            .with_model(ModelDeployment::new("a", renamed("a", models::mini::tiny(4))));
        let mut sim = Sim::new(LifecycleConfig::new(plan), 64 << 20);
        sim.run_until(SimTime::ZERO);
        let mi = 0;
        let mut fx = Effects::default();
        assert!(sim.mgr.request_load(mi, sim.now, &mut sim.pool, &mut fx));
        sim.absorb(fx);
        sim.drain_ticks();
        let ka = VersionKey { model: 0, version: 1 };
        // One run in flight keeps the drain pending rather than unloading.
        assert_eq!(sim.route(0, 0), Route::Issue(ka));
        let mut fx = Effects::default();
        assert!(sim.mgr.request_drain(mi, sim.now, &mut sim.pool, &mut fx));
        sim.absorb(fx);
        assert_eq!(sim.mgr.state(ka), VersionState::Draining);
        // New demand arrives before the last run finishes: the route
        // issues against the still-resident weights and cancels the drain.
        assert_eq!(sim.route(0, 1), Route::Issue(ka));
        assert_eq!(sim.mgr.state(ka), VersionState::Serving);
        sim.finish(ka, SimDuration::from_micros(50));
        sim.finish(ka, SimDuration::from_micros(50));
        assert_eq!(sim.mgr.state(ka), VersionState::Serving, "no unload after the cancel");
        assert!(sim.mgr.resident_bytes() > 0);
    }

    #[test]
    fn drain_refused_while_wake_credit_outstanding() {
        let mut sim = Sim::new(LifecycleConfig::new(one_model_plan()), 64 << 20);
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.route(0, 0), Route::Wait);
        sim.drain_ticks();
        // Client 0 was woken but has not re-issued: its credit pins the
        // version, so a reconfiguration drain must be refused.
        assert_eq!(sim.woken, vec![0]);
        let mut fx = Effects::default();
        assert!(!sim.mgr.request_drain(0, sim.now, &mut sim.pool, &mut fx));
        // The engine re-routes the woken client to another device and
        // cancels the credit; now the drain goes through.
        sim.mgr.cancel_wake_credit(0);
        assert!(sim.mgr.request_drain(0, sim.now, &mut sim.pool, &mut fx));
        sim.absorb(fx);
        assert_eq!(
            sim.mgr.state(VersionKey { model: 0, version: 1 }),
            VersionState::Unloaded
        );
    }

    #[test]
    fn unanswered_wake_pins_version_until_the_client_issues() {
        // Budget fits exactly one model: "a" and "b" contend for the slot.
        let plan = DeploymentPlan::new()
            .with_model(ModelDeployment::new("a", renamed("a", models::mini::tiny(4))))
            .with_model(ModelDeployment::new("b", renamed("b", models::mini::tiny(4))));
        let budget = (1 << 20) + (64 << 10);
        let mut sim = Sim::new(LifecycleConfig::new(plan), budget);
        sim.run_until(SimTime::ZERO);
        let (ka, kb) = (
            VersionKey { model: 0, version: 1 },
            VersionKey { model: 1, version: 1 },
        );
        assert_eq!(sim.route(0, 0), Route::Wait);
        // "b" queues behind the full pool ("a" is Loading, not evictable).
        assert_eq!(sim.route(1, 1), Route::Wait);
        sim.drain_ticks();
        // "a" finished warming in the same ticks that retry "b"'s pending
        // load; the un-answered wake of client 0 keeps "a" resident, or
        // the pair would evict each other forever without serving a run.
        assert_eq!(sim.mgr.state(ka), VersionState::Serving);
        assert_eq!(sim.woken, vec![0]);
        assert_eq!(sim.route(0, 0), Route::Issue(ka));
        // The wake credit is consumed; once the run finishes and "a" goes
        // idle, the queued "b" load may reclaim the slot.
        sim.finish(ka, SimDuration::from_micros(50));
        assert!(sim.events.iter().any(|e| matches!(
            e,
            TraceKind::Evict { model: 0, version: 1, .. }
        )));
        sim.drain_ticks();
        assert_eq!(sim.mgr.state(kb), VersionState::Serving);
        assert_eq!(sim.woken, vec![0, 1]);
    }

    fn canary_run(regressed: bool) -> (Vec<TraceKind>, LifecycleManager) {
        // v2 publishes at 10 ms; healthy v2 matches v1's latency, the
        // regressed one reports 10× the latency.
        let plan = DeploymentPlan::new().with_model(
            ModelDeployment::new("svc", renamed("svc", models::mini::tiny(4)))
                .with_version(renamed("svc", models::mini::tiny(4)), SimTime::from_millis(10)),
        );
        let cfg = LifecycleConfig::new(plan);
        let mut sim = Sim::new(cfg, 64 << 20);
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.route(0, 0), Route::Wait);
        sim.run_until(SimTime::from_millis(9));
        let v1 = VersionKey { model: 0, version: 1 };
        let v2 = VersionKey { model: 0, version: 2 };
        assert_eq!(sim.mgr.state(v1), VersionState::Serving);
        // Publish v2 and let it load + warm.
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.mgr.state(v2), VersionState::Serving);
        // Issue runs until the canary decides; finish each immediately.
        for i in 0..200u32 {
            sim.now += SimDuration::from_micros(50);
            let Route::Issue(key) = sim.route(0, i % 4) else {
                panic!("serving model must issue")
            };
            let lat = if key == v2 && regressed {
                SimDuration::from_micros(2_000)
            } else {
                SimDuration::from_micros(200)
            };
            sim.finish(key, lat);
            let decided = sim.events.iter().any(|e| {
                matches!(e, TraceKind::CanaryPromote { .. } | TraceKind::CanaryRollback { .. })
            });
            if decided {
                break;
            }
        }
        sim.drain_ticks();
        (sim.events, sim.mgr)
    }

    #[test]
    fn canary_promotes_healthy_candidate() {
        let (events, mgr) = canary_run(false);
        assert!(events.iter().any(|e| matches!(
            e,
            TraceKind::CanaryPromote { model: 0, version: 2, .. }
        )));
        // The old incumbent drained and unloaded (nothing was in flight).
        assert!(events.iter().any(|e| matches!(
            e,
            TraceKind::Unload { model: 0, version: 1, .. }
        )));
        assert_eq!(mgr.state(VersionKey { model: 0, version: 2 }), VersionState::Serving);
    }

    #[test]
    fn canary_rolls_back_regressed_candidate() {
        let (events, mgr) = canary_run(true);
        let rolled = events
            .iter()
            .find_map(|e| match e {
                &TraceKind::CanaryRollback { model, version, cand_us, base_us } => {
                    Some((VersionKey { model, version }, cand_us, base_us))
                }
                _ => None,
            })
            .expect("regressed candidate must roll back");
        assert_eq!(rolled.0, VersionKey { model: 0, version: 2 });
        assert!(rolled.1 > rolled.2, "candidate latency must exceed incumbent");
        assert_eq!(mgr.state(VersionKey { model: 0, version: 1 }), VersionState::Serving);
        assert_eq!(mgr.state(VersionKey { model: 0, version: 2 }), VersionState::Unloaded);
    }

    #[test]
    fn route_cheapest_picks_the_lighter_serving_version() {
        // Both orders: the lighter graph wins whether it is the incumbent
        // or the canary candidate.
        for light_first in [true, false] {
            let (light, heavy) = (models::mini::tiny(4), models::mini::small(4));
            let (v1, v2) = if light_first { (light, heavy) } else { (heavy, light) };
            let plan = DeploymentPlan::new().with_model(
                ModelDeployment::new("svc", renamed("svc", v1))
                    .with_version(renamed("svc", v2), SimTime::from_millis(10)),
            );
            // No run finishes, so the canary never decides and both
            // versions stay Serving.
            let cfg = LifecycleConfig::new(plan);
            let mut sim = Sim::new(cfg, 64 << 20);
            sim.run_until(SimTime::ZERO);
            assert_eq!(sim.route(0, 0), Route::Wait);
            sim.run_until(SimTime::from_millis(20));
            let keys = [1, 2].map(|version| VersionKey { model: 0, version });
            assert!(keys.iter().all(|&k| sim.mgr.state(k) == VersionState::Serving));
            let cheaper = keys[usize::from(!light_first)];
            for client in 0..4 {
                let mut fx = Effects::default();
                let r = sim.mgr.route_cheapest(0, client, sim.now, &mut sim.pool, &mut fx);
                sim.absorb(fx);
                assert_eq!(r, Route::Issue(cheaper));
            }
        }
    }

    #[test]
    fn draining_version_waits_for_inflight_runs() {
        let plan = DeploymentPlan::new().with_model(
            ModelDeployment::new("svc", renamed("svc", models::mini::tiny(4)))
                .with_version(renamed("svc", models::mini::tiny(4)), SimTime::from_millis(10)),
        );
        let cfg = LifecycleConfig::new(plan);
        let mut sim = Sim::new(cfg, 64 << 20);
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.route(0, 0), Route::Wait);
        sim.run_until(SimTime::from_millis(5));
        let v1 = VersionKey { model: 0, version: 1 };
        // Keep one run of v1 in flight across the canary decision.
        assert_eq!(sim.route(0, 9), Route::Issue(v1));
        sim.run_until(SimTime::from_millis(20));
        // Decide the canary with one v1 run still open.
        for i in 0..200u32 {
            sim.now += SimDuration::from_micros(50);
            let Route::Issue(key) = sim.route(0, i % 4) else {
                panic!("serving model must issue")
            };
            sim.finish(key, SimDuration::from_micros(200));
            if sim.events.iter().any(|e| matches!(e, TraceKind::CanaryPromote { .. })) {
                break;
            }
        }
        assert_eq!(sim.mgr.state(v1), VersionState::Draining);
        assert!(!sim
            .events
            .iter()
            .any(|e| matches!(e, TraceKind::Unload { .. })));
        // The straggler finishes: only now does v1 unload.
        sim.finish(v1, SimDuration::from_micros(400));
        assert_eq!(sim.mgr.state(v1), VersionState::Unloaded);
        assert!(sim.events.iter().any(|e| matches!(
            e,
            TraceKind::Unload { model: 0, version: 1, .. }
        )));
    }

    #[test]
    fn a_versioned_name_is_built_in_one_allocation_of_its_length() {
        for (version, want) in [(1, "svc@v1"), (10, "svc@v10"), (u32::MAX, "svc@v4294967295")] {
            let name = versioned_name("svc", version);
            assert_eq!(name, want);
            assert_eq!(name.capacity(), want.len(), "{want}");
        }
    }

    #[test]
    fn oversized_version_rejected_up_front() {
        let cfg = LifecycleConfig::new(one_model_plan());
        let table = Arc::new(DeploymentTable::new(&cfg.plan).expect("valid plan"));
        let err = LifecycleManager::new(table, &cfg, 1024).unwrap_err();
        assert!(matches!(err, LifecycleError::OversizedVersion { budget: 1024, .. }));
    }
}
