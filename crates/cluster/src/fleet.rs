//! The fleet runtime: the run's deployment table, one lifecycle manager
//! per device over it, and the ledgers both cadences read. It owns no
//! clock, event queue or memory pool: each call that reaches a manager
//! fills an [`Effects`] record, which the engine applies before its next
//! call, because a client the effects wake re-enters [`Fleet::route`] at
//! once. Nor does it keep a record per run or per client: [`Fleet::issued`]
//! hands the engine an [`Issued`] record that [`Fleet::settle`] takes
//! back, and each client's [`ClientRoute`] lives with the engine's client.
//! So no run, client or model name is hashed, and no table grows with the
//! jobs a run has seen.

use crate::{scaled_execute_ns, ClusterConfig, FlowProblem, FlowWorkspace, RouterPolicy};
use gpusim::{DeviceProfile, MemoryPool};
use lifecycle::{DeploymentTable, Effects, LifecycleError, LifecycleManager, Route, VersionKey};
use models::LoadedModel;
use simtime::{SimDuration, SimTime};
use std::sync::Arc;

/// Where the router sent one arriving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    /// The device the run was routed to.
    pub device: u32,
    /// The run's execute estimate there (ns), charged to the device's
    /// queue until the run finishes.
    pub est_ns: u64,
    /// What the pick cost (ns): queue plus price when cost-aware, the
    /// execute estimate when static.
    pub cost_ns: u64,
    /// The device manager's answer.
    pub route: Route,
}

/// An issued run's route record: its device, the version it runs and the
/// execute estimate charged to the device's queue. [`Fleet::settle`] takes
/// it back when the run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issued {
    device: u32,
    key: VersionKey,
    est_ns: u64,
}

/// A client's standing with the router: its id, the deployment it asks
/// for and, while it waits for a version after [`Fleet::park`], the device
/// whose queue carries its execute estimate until it routes again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRoute {
    client: u32,
    /// Deployment index, in plan order.
    deployment: u32,
    /// `(device, execute ns)` while parked.
    parked: Option<(u32, u64)>,
}

impl ClientRoute {
    /// A client of deployment `deployment` that has not routed yet.
    pub fn new(client: u32, deployment: u32) -> Self {
        ClientRoute { client, deployment, parked: None }
    }
}

/// One command of a re-placement plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Load the model on a device the flow placed it on, if cold there.
    Load {
        /// Deployment index.
        model: usize,
        /// Target device.
        device: usize,
    },
    /// Drain the model from a device that got no flow, if it serves there.
    Drain {
        /// Deployment index.
        model: usize,
        /// The device to drain.
        from: usize,
        /// The first device the flow placed the model on.
        to: usize,
    },
}

/// The live fleet of one run.
#[derive(Debug)]
pub struct Fleet {
    /// The plan, resolved once for every device.
    table: Arc<DeploymentTable>,
    /// One manager per device, each sharing `table`, so version keys and
    /// deployment indices agree across devices.
    managers: Vec<LifecycleManager>,
    policy: RouterPolicy,
    /// Reconfiguration cadence; `None` when the flow loop is off.
    every: Option<SimDuration>,
    /// Execute ns routed to each device and not yet finished: the router's
    /// queue-drain term.
    outstanding_ns: Vec<u64>,
    /// Arrivals per model since the last reconfiguration.
    window_demand: Vec<u64>,
    /// Latest execute estimate per model (ns at speed 1.0): the flow's
    /// cost basis.
    exec_est: Vec<u64>,
    speed: Vec<f64>,
    /// Each device's speed in parts per million, and their sum: the
    /// shares the flow's capacities are split by.
    speed_ppm: Vec<u64>,
    sum_ppm: u64,
    /// The last reconfiguration's instance and the solver's buffers, both
    /// refilled in place by the next one.
    problem: FlowProblem,
    solver: FlowWorkspace,
}

impl Fleet {
    /// A fleet serving `cfg`'s plan on `devices` (at least one), each
    /// manager budgeted with its device's memory.
    ///
    /// # Errors
    ///
    /// The first [`LifecycleError`]: an invalid plan, or a version too big
    /// for a device.
    pub fn new(cfg: &ClusterConfig, devices: &[DeviceProfile]) -> Result<Fleet, LifecycleError> {
        let table = Arc::new(DeploymentTable::new(&cfg.lifecycle.plan)?);
        let mut managers = Vec::with_capacity(devices.len());
        for p in devices {
            managers.push(LifecycleManager::new(Arc::clone(&table), &cfg.lifecycle, p.memory_bytes())?);
        }
        let n_models = table.deployments();
        let speed_ppm: Vec<u64> = devices.iter().map(|p| (p.speed_factor() * 1e6) as u64).collect();
        Ok(Fleet {
            outstanding_ns: vec![0; managers.len()],
            window_demand: vec![0; n_models],
            exec_est: vec![0; n_models],
            speed: devices.iter().map(DeviceProfile::speed_factor).collect(),
            sum_ppm: speed_ppm.iter().sum(),
            speed_ppm,
            problem: FlowProblem::default(),
            solver: FlowWorkspace::default(),
            policy: cfg.policy,
            every: cfg.reconfigure.then_some(cfg.tick),
            managers,
            table,
        })
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.managers.len()
    }

    /// The reconfiguration cadence, or `None` when the flow loop is off.
    pub fn reconfigure_every(&self) -> Option<SimDuration> {
        self.every
    }

    /// Requests a tick at every publish instant (the same on every device).
    pub fn startup(&self, fx: &mut Effects) {
        self.table.startup(fx);
    }

    /// The servable behind `key`, named `"{name}@v{n}"`.
    pub fn version(&self, key: VersionKey) -> &LoadedModel {
        self.table.version(key)
    }

    /// Resident weight bytes summed over the devices.
    pub fn resident_bytes(&self) -> u64 {
        self.managers.iter().map(LifecycleManager::resident_bytes).sum()
    }

    /// Advances `device`'s time-driven transitions to `now`.
    pub fn tick(&mut self, device: usize, now: SimTime, pool: &mut MemoryPool, fx: &mut Effects) {
        self.managers[device].tick(now, pool, fx);
    }

    /// The price (ns) of one run of deployment `mi` on device `d`, queue
    /// aside: the transfer a load would pay unless the model is resident or
    /// loading there, plus `base_ns` (GPU time at speed 1.0) scaled to `d`.
    /// The router adds the device's queue; the flow's arcs use it bare.
    pub fn price_ns(&self, mi: usize, d: usize, base_ns: u64) -> u64 {
        let m = &self.managers[d];
        let transfer = MemoryPool::transfer_time(m.aspired_weights_bytes(mi), m.load_gbps());
        let warm = m.serving_version(mi).is_some() || m.is_loading(mi);
        scaled_execute_ns(base_ns, self.speed[d]) + if warm { 0 } else { transfer.as_nanos() }
    }

    /// Routes one run of `client`'s deployment, priced by `model`, the
    /// client's own servable, to the device the policy picks (cost-aware:
    /// lowest queue plus price, then lowest index) and resolves the version
    /// there, the cheapest resident one when `degraded`. A parked client
    /// gets back its queue charge, and its wake credit if it moves; demand
    /// counts arrivals.
    pub fn route(
        &mut self,
        model: &LoadedModel,
        client: &mut ClientRoute,
        now: SimTime,
        degraded: bool,
        pools: &mut [MemoryPool],
        fx: &mut Effects,
    ) -> Routed {
        let mi = client.deployment as usize;
        let base_ns = model.graph().total_gpu_time().as_nanos();
        let parked_dev = client.parked.take().map(|(pd, est)| {
            let q = &mut self.outstanding_ns[pd as usize];
            *q = q.saturating_sub(est);
            pd as usize
        });
        if parked_dev.is_none() {
            self.window_demand[mi] += 1;
        }
        self.exec_est[mi] = base_ns;
        let (dev, cost_ns) = match self.policy {
            RouterPolicy::Static => {
                let d = mi % self.managers.len();
                (d, scaled_execute_ns(base_ns, self.speed[d]))
            }
            RouterPolicy::CostAware => (0..self.managers.len())
                .map(|d| (d, self.outstanding_ns[d].saturating_add(self.price_ns(mi, d, base_ns))))
                .min_by_key(|&(_, cost)| cost)
                .expect("a fleet has at least one device"),
        };
        if let Some(pd) = parked_dev.filter(|&pd| pd != dev) {
            self.managers[pd].cancel_wake_credit(mi);
        }
        let (mgr, pool) = (&mut self.managers[dev], &mut pools[dev]);
        let route = if degraded {
            mgr.route_cheapest(mi, client.client, now, pool, fx)
        } else {
            mgr.route(mi, client.client, now, pool, fx)
        };
        let est_ns = scaled_execute_ns(base_ns, self.speed[dev]);
        Routed { device: dev as u32, est_ns, cost_ns, route }
    }

    /// Parks `client` after a [`Route::Wait`], charging its execute
    /// estimate to the device's queue until it routes again.
    pub fn park(&mut self, client: &mut ClientRoute, routed: &Routed) {
        client.parked = Some((routed.device, routed.est_ns));
        self.outstanding_ns[routed.device as usize] += routed.est_ns;
    }

    /// Charges a run issued on `device` to its queue until [`Fleet::settle`]
    /// takes back the returned record.
    pub fn issued(&mut self, device: u32, key: VersionKey, est_ns: u64) -> Issued {
        self.outstanding_ns[device as usize] += est_ns;
        Issued { device, key, est_ns }
    }

    /// Settles a routed run: its queue charge comes back and its device's
    /// manager sees the run end (`latency == None`: cancelled or never
    /// started).
    pub fn settle(
        &mut self,
        run: Issued,
        now: SimTime,
        latency: Option<SimDuration>,
        pools: &mut [MemoryPool],
        fx: &mut Effects,
    ) {
        let (d, q) = (run.device as usize, &mut self.outstanding_ns[run.device as usize]);
        *q = q.saturating_sub(run.est_ns);
        self.managers[d].run_finished(run.key, now, latency, &mut pools[d], fx);
    }

    /// Closes the demand window into its min-cost-flow instance, refilled
    /// in place (`None`: no arrivals). Capacities are run units
    /// proportional to speed, rounded up so they cover demand; arc costs
    /// are prices in µs.
    fn flow_problem(&mut self) -> Option<&FlowProblem> {
        let total: u64 = self.window_demand.iter().sum();
        if total == 0 {
            return None;
        }
        let mut p = std::mem::take(&mut self.problem);
        p.demands.clear();
        p.demands.extend_from_slice(&self.window_demand);
        self.window_demand.fill(0);
        p.capacities.clear();
        let sum_ppm = self.sum_ppm;
        p.capacities.extend(self.speed_ppm.iter().map(|&s| (total * s).div_ceil(sum_ppm)));
        p.costs.resize_with(self.exec_est.len(), Vec::new);
        for ((mi, &est), row) in self.exec_est.iter().enumerate().zip(&mut p.costs) {
            row.clear();
            row.extend((0..self.managers.len()).map(|d| self.price_ns(mi, d, est) / 1_000));
        }
        self.problem = p;
        Some(&self.problem)
    }

    /// Fills `steps` with the demand window's re-placement plan: per model
    /// with flow, loads where the flow placed it, then drains everywhere
    /// else. Steps are checked against the fleet only when
    /// [`Fleet::execute`] runs them.
    pub fn replan(&mut self, steps: &mut Vec<Step>) {
        steps.clear();
        if self.flow_problem().is_none() {
            return;
        }
        let flow = &self.solver.solve(&self.problem).flow;
        for (model, row) in flow.iter().enumerate() {
            let Some(to) = row.iter().position(|&f| f > 0) else {
                continue;
            };
            let placed = |on: bool| (0..row.len()).filter(move |&d| (row[d] > 0) == on);
            steps.extend(placed(true).map(|device| Step::Load { model, device }));
            steps.extend(placed(false).map(|from| Step::Drain { model, from, to }));
        }
    }

    /// Runs one plan step; returns whether its device's manager took it.
    pub fn execute(
        &mut self,
        step: Step,
        now: SimTime,
        pools: &mut [MemoryPool],
        fx: &mut Effects,
    ) -> bool {
        match step {
            Step::Load { model, device } => {
                let m = &mut self.managers[device];
                m.serving_version(model).is_none()
                    && !m.is_loading(model)
                    && m.request_load(model, now, &mut pools[device], fx)
            }
            Step::Drain { model, from, .. } => {
                let m = &mut self.managers[from];
                m.serving_version(model).is_some()
                    && m.request_drain(model, now, &mut pools[from], fx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifecycle::{DeploymentPlan, LifecycleConfig, ModelDeployment};
    use std::sync::Arc;

    fn named(name: &str) -> LoadedModel {
        let m = models::mini::tiny(4);
        LoadedModel::from_parts(
            name,
            None,
            m.batch(),
            Arc::clone(m.graph()),
            m.weights_bytes(),
            m.activation_bytes(),
        )
    }

    /// Two identical devices serving `names`, cost-aware routing.
    fn fleet(names: &[&str]) -> (Fleet, Vec<MemoryPool>) {
        let mut plan = DeploymentPlan::new();
        for n in names {
            plan = plan.with_model(ModelDeployment::new(*n, named(n)));
        }
        let devices = vec![
            DeviceProfile::custom("d0", 1.0, 1 << 30, 8, 0.0),
            DeviceProfile::custom("d1", 1.0, 1 << 30, 8, 0.0),
        ];
        let cfg = ClusterConfig::new(devices.clone(), LifecycleConfig::new(plan));
        let pools = devices.iter().map(|p| MemoryPool::new(p.memory_bytes())).collect();
        (Fleet::new(&cfg, &devices).expect("valid plan"), pools)
    }

    /// Ticks device `d` through its pending transitions until a client
    /// wakes; returns the instant and the woken clients.
    fn serve(
        fleet: &mut Fleet,
        pools: &mut [MemoryPool],
        d: usize,
        mut due: Vec<SimTime>,
    ) -> (SimTime, Vec<u32>) {
        while let Some(i) = (0..due.len()).min_by_key(|&i| due[i]) {
            let at = due.swap_remove(i);
            let mut fx = Effects::default();
            fleet.tick(d, at, &mut pools[d], &mut fx);
            due.extend(fx.ticks);
            if !fx.wake.is_empty() {
                return (at, fx.wake);
            }
        }
        panic!("device {d} never woke anyone");
    }

    fn route(
        fleet: &mut Fleet,
        pools: &mut [MemoryPool],
        m: &LoadedModel,
        c: &mut ClientRoute,
        at: SimTime,
    ) -> (Routed, Effects) {
        let mut fx = Effects::default();
        let r = fleet.route(m, c, at, false, pools, &mut fx);
        (r, fx)
    }

    #[test]
    fn router_price_equals_the_flow_arc_on_an_empty_queue() {
        let (mut fleet, mut pools) = fleet(&["a"]);
        let (m, mut c0) = (named("a"), ClientRoute::new(0, 0));
        let (first, fx) = route(&mut fleet, &mut pools, &m, &mut c0, SimTime::ZERO);
        assert_eq!(first.route, Route::Wait);
        assert_eq!(first.device, 0, "a tie keeps the lowest index");
        fleet.park(&mut c0, &first);
        let (at, woken) = serve(&mut fleet, &mut pools, 0, fx.ticks);
        assert_eq!(woken, vec![0]);
        // The woken client gets its parked charge back, so device 0's
        // queue is empty again when it re-routes.
        let (issued, _) = route(&mut fleet, &mut pools, &m, &mut c0, at);
        assert!(matches!(issued.route, Route::Issue(_)));
        assert_eq!(fleet.outstanding_ns, vec![0, 0]);
        let base = m.graph().total_gpu_time().as_nanos();
        assert_eq!(issued.cost_ns, fleet.price_ns(0, 0, base));
        assert_eq!(issued.est_ns, issued.cost_ns, "a resident model pays no transfer");
        let cold = fleet.price_ns(0, 1, base) / 1_000;
        let costs = &fleet.flow_problem().expect("one arrival in the window").costs;
        assert_eq!(costs[0], vec![issued.cost_ns / 1_000, cold]);
        assert!(costs[0][1] > costs[0][0], "the cold device pays the transfer");
    }

    #[test]
    fn price_charges_the_transfer_only_where_the_model_is_cold() {
        let (mut fleet, mut pools) = fleet(&["a"]);
        let m = named("a");
        let base = m.graph().total_gpu_time().as_nanos();
        let execute = scaled_execute_ns(base, 1.0);
        let cold = fleet.price_ns(0, 0, base);
        assert!(cold > execute, "a cold device pays the transfer");
        assert_eq!(fleet.price_ns(0, 1, base), cold);
        let (mut c0, mut c1) = (ClientRoute::new(0, 0), ClientRoute::new(1, 0));
        let (first, fx) = route(&mut fleet, &mut pools, &m, &mut c0, SimTime::ZERO);
        assert_eq!((first.device, first.cost_ns), (0, cold));
        // A load in flight already paid the transfer, so a second arrival
        // prices device 0 at the execute time and stays there.
        assert_eq!(fleet.price_ns(0, 0, base), execute);
        let (second, _) = route(&mut fleet, &mut pools, &m, &mut c1, SimTime::ZERO);
        assert_eq!((second.device, second.cost_ns), (0, execute));
        let _ = serve(&mut fleet, &mut pools, 0, fx.ticks);
        assert_eq!(fleet.price_ns(0, 0, base), execute, "resident: no transfer");
        assert_eq!(fleet.price_ns(0, 1, base), cold);
    }

    #[test]
    fn demand_counts_once_per_arrival_not_per_wake() {
        let (mut fleet, mut pools) = fleet(&["a", "b"]);
        let m = named("a");
        let (mut c7, mut c8) = (ClientRoute::new(7, 0), ClientRoute::new(8, 0));
        let (first, fx) = route(&mut fleet, &mut pools, &m, &mut c7, SimTime::ZERO);
        fleet.park(&mut c7, &first);
        assert_eq!(fleet.window_demand, vec![1, 0]);
        let (at, woken) = serve(&mut fleet, &mut pools, 0, fx.ticks);
        assert_eq!(woken, vec![7]);
        let _ = route(&mut fleet, &mut pools, &m, &mut c7, at);
        assert_eq!(fleet.window_demand, vec![1, 0], "a wake-up is not a new arrival");
        let _ = route(&mut fleet, &mut pools, &m, &mut c8, at);
        assert_eq!(fleet.window_demand, vec![2, 0]);
        assert_eq!(fleet.flow_problem().expect("demand").demands, vec![2, 0]);
        assert_eq!(fleet.window_demand, vec![0, 0], "the flow closes the window");
        assert!(fleet.flow_problem().is_none());
    }

    #[test]
    fn rerouted_parked_client_returns_its_wake_credit_and_queue_charge() {
        let (mut fleet, mut pools) = fleet(&["a"]);
        let (m, mut c3) = (named("a"), ClientRoute::new(3, 0));
        let (first, fx) = route(&mut fleet, &mut pools, &m, &mut c3, SimTime::ZERO);
        assert_eq!((first.device, first.route), (0, Route::Wait));
        fleet.park(&mut c3, &first);
        assert_eq!(fleet.outstanding_ns[0], first.est_ns);
        let (at, woken) = serve(&mut fleet, &mut pools, 0, fx.ticks);
        assert_eq!(woken, vec![3]);
        // Work queued on device 0 meanwhile makes the cold device cheaper.
        let busy = 10 * fleet.price_ns(0, 1, m.graph().total_gpu_time().as_nanos());
        fleet.outstanding_ns[0] += busy;
        let (second, _) = route(&mut fleet, &mut pools, &m, &mut c3, at);
        assert_eq!((second.device, second.route), (1, Route::Wait));
        assert_eq!(fleet.outstanding_ns[0], busy, "the parked charge came back");
        // With the wake credit returned nothing pins device 0's replica, so
        // its manager agrees to drain it.
        let mut fx = Effects::default();
        let drain = Step::Drain { model: 0, from: 0, to: 1 };
        assert!(fleet.execute(drain, at, &mut pools, &mut fx));
    }

    #[test]
    fn settle_returns_the_charge_of_the_record_it_is_handed() {
        let (mut fleet, mut pools) = fleet(&["a"]);
        let (m, mut c0) = (named("a"), ClientRoute::new(0, 0));
        let (first, fx) = route(&mut fleet, &mut pools, &m, &mut c0, SimTime::ZERO);
        fleet.park(&mut c0, &first);
        let (at, _) = serve(&mut fleet, &mut pools, 0, fx.ticks);
        let (r, _) = route(&mut fleet, &mut pools, &m, &mut c0, at);
        let Route::Issue(key) = r.route else { panic!("resident model issues") };
        let run = fleet.issued(r.device, key, r.est_ns);
        assert_eq!(fleet.outstanding_ns, vec![r.est_ns, 0]);
        let mut fx = Effects::default();
        fleet.settle(run, at, None, &mut pools, &mut fx);
        assert_eq!(fleet.outstanding_ns, vec![0, 0]);
    }

    #[test]
    fn replan_loads_placements_then_drains_the_rest() {
        let (mut fleet, mut pools) = fleet(&["a", "b"]);
        let (a, b) = (named("a"), named("b"));
        for c in 0..4 {
            let (m, mi) = if c < 3 { (&a, 0) } else { (&b, 1) };
            let _ = route(&mut fleet, &mut pools, m, &mut ClientRoute::new(c, mi), SimTime::ZERO);
        }
        let mut steps = Vec::new();
        fleet.replan(&mut steps);
        assert!(!steps.is_empty());
        // Per model, loads come before drains, and a drain names a device
        // the model was loaded on.
        for model in 0..2 {
            let mine: Vec<&Step> = steps
                .iter()
                .filter(|s| match s {
                    Step::Load { model: m, .. } | Step::Drain { model: m, .. } => *m == model,
                })
                .collect();
            let first_drain = mine.iter().position(|s| matches!(s, Step::Drain { .. }));
            if let Some(i) = first_drain {
                assert!(mine[i..].iter().all(|s| matches!(s, Step::Drain { .. })));
                let Step::Drain { to, .. } = *mine[i] else { unreachable!() };
                let loaded_to =
                    |s: &&&Step| matches!(s, Step::Load { device, .. } if *device == to);
                assert!(mine[..i].iter().any(|s| loaded_to(&s)));
            }
        }
        fleet.replan(&mut steps);
        assert!(steps.is_empty(), "an empty window plans nothing");
    }
}
