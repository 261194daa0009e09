//! Integer-cost min-cost flow over the model-demand → device-capacity
//! bipartite graph — the δt2 reconfiguration solver.
//!
//! The graph has four layers: a source, one node per model (supply =
//! observed demand, in run units), one node per device (capacity = how many
//! run units the device can absorb, scaled by its speed), and a sink. Every
//! model→device arc exists (any model *can* be replicated anywhere) with a
//! per-unit cost in integer microseconds: the transfer price if the model
//! is not resident there plus the profile-scaled execute time. The solver
//! ships as much demand as capacity allows at minimum total cost; arcs
//! carrying flow in the solution are the placement the reconfiguration
//! loop materializes through the per-device lifecycle managers.
//!
//! Everything here is integer arithmetic over caller-provided numbers —
//! no clocks, no randomness, no hash iteration — so a plan is a pure
//! function of its [`FlowProblem`].

/// One reconfiguration instance: `demands[m]` run units per model,
/// `capacities[d]` run units per device, `costs[m][d]` per-unit cost in
/// integer microseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowProblem {
    /// Demand per model, in run units.
    pub demands: Vec<u64>,
    /// Capacity per device, in run units.
    pub capacities: Vec<u64>,
    /// Per-unit shipping cost, `costs[model][device]`, microseconds.
    pub costs: Vec<Vec<u64>>,
}

impl FlowProblem {
    /// Checks shape consistency.
    ///
    /// # Panics
    ///
    /// Panics if the cost matrix is not `demands.len() x capacities.len()`.
    pub fn validate(&self) {
        assert_eq!(self.costs.len(), self.demands.len(), "one cost row per model");
        for row in &self.costs {
            assert_eq!(row.len(), self.capacities.len(), "one cost column per device");
        }
    }
}

/// A solved assignment: `flow[m][d]` run units of model `m` placed on
/// device `d`, plus the plan's total cost and shipped volume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowAssignment {
    /// Shipped units per (model, device) arc.
    pub flow: Vec<Vec<u64>>,
    /// Total cost of the shipped units (Σ flow × unit cost), microseconds.
    pub cost: u64,
    /// Total units shipped = `min(Σ demands, Σ capacities)`.
    pub shipped: u64,
}

impl FlowAssignment {
    /// Devices assigned at least one unit of model `m`, ascending index.
    pub fn placements(&self, m: usize) -> Vec<usize> {
        self.flow[m]
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(d, _)| d)
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    cap: u64,
    cost: i64,
    /// Index of the paired reverse edge in the owner node's sibling list.
    rev: usize,
}

/// The solver's buffers: the residual graph, the Bellman-Ford vectors and
/// the assignment. A reconfiguration loop that keeps one across ticks
/// allocates nothing once the buffers fit its instance size, and every
/// [`FlowWorkspace::solve`] returns exactly what [`solve`] returns.
#[derive(Debug, Default)]
pub struct FlowWorkspace {
    /// Residual graph in adjacency-list form; `graph[v]` holds v's outgoing
    /// (forward and residual) edges in insertion order, which is fixed by
    /// the deterministic construction in [`FlowWorkspace::build`].
    graph: Vec<Vec<Edge>>,
    dist: Vec<i64>,
    prev: Vec<Option<(usize, usize)>>,
    assignment: FlowAssignment,
}

impl FlowWorkspace {
    fn add(&mut self, from: usize, to: usize, cap: u64, cost: i64) {
        let rev_from = self.graph[to].len();
        let rev_to = self.graph[from].len();
        self.graph[from].push(Edge { to, cap, cost, rev: rev_from });
        self.graph[to].push(Edge { to: from, cap: 0, cost: -cost, rev: rev_to });
    }

    /// Rebuilds the residual graph of `p` in the kept adjacency lists:
    /// source, one node per model, one per device, sink.
    fn build(&mut self, p: &FlowProblem) {
        let m = p.demands.len();
        let n = m + p.capacities.len() + 2;
        self.graph.resize_with(n, Vec::new);
        self.graph.iter_mut().for_each(Vec::clear);
        for (i, &dem) in p.demands.iter().enumerate() {
            self.add(0, 1 + i, dem, 0);
        }
        for (i, row) in p.costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                self.add(1 + i, 1 + m + j, u64::MAX / 4, c as i64);
            }
        }
        for (j, &cap) in p.capacities.iter().enumerate() {
            self.add(1 + m + j, n - 1, cap, 0);
        }
    }

    /// Solves `p` exactly by successive shortest augmenting paths:
    /// repeatedly find the cheapest residual source→sink path (Bellman-Ford
    /// — residual arcs carry negative costs, so Dijkstra without potentials
    /// is wrong) and push the bottleneck flow along it. Each augmentation
    /// saturates at least one arc and path costs are non-decreasing, so the
    /// final flow is a minimum-cost maximum flow; with these integer
    /// capacities termination is immediate (at most `models + devices`
    /// augmentations since every path saturates a source or sink arc).
    ///
    /// # Panics
    ///
    /// Panics if the cost matrix is not `demands.len() x capacities.len()`.
    pub fn solve(&mut self, p: &FlowProblem) -> &FlowAssignment {
        p.validate();
        self.build(p);
        let (m, d) = (p.demands.len(), p.capacities.len());
        let n = self.graph.len();
        let (source, sink) = (0, n - 1);
        let FlowWorkspace { graph, dist, prev, assignment } = self;
        let mut total_cost: i64 = 0;
        let mut shipped: u64 = 0;
        loop {
            // Bellman-Ford from the source over the residual graph. Nodes and
            // edges are scanned in index order, so tie-costs resolve to the
            // lexicographically first path — same plan on every run.
            dist.clear();
            dist.resize(n, i64::MAX);
            prev.clear();
            prev.resize(n, None);
            dist[source] = 0;
            for _ in 0..n {
                let mut changed = false;
                for v in 0..n {
                    if dist[v] == i64::MAX {
                        continue;
                    }
                    for (ei, e) in graph[v].iter().enumerate() {
                        if e.cap > 0 && dist[v] + e.cost < dist[e.to] {
                            dist[e.to] = dist[v] + e.cost;
                            prev[e.to] = Some((v, ei));
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            if dist[sink] == i64::MAX {
                break;
            }
            // Bottleneck along the path, then push.
            let mut bottleneck = u64::MAX;
            let mut v = sink;
            while let Some((u, ei)) = prev[v] {
                bottleneck = bottleneck.min(graph[u][ei].cap);
                v = u;
            }
            let mut v = sink;
            while let Some((u, ei)) = prev[v] {
                graph[u][ei].cap -= bottleneck;
                let rev = graph[u][ei].rev;
                graph[v][rev].cap += bottleneck;
                v = u;
            }
            total_cost += dist[sink] * bottleneck as i64;
            shipped += bottleneck;
        }

        // Read the model→device flows back off the residual: the reverse
        // arc's capacity is exactly the flow pushed forward.
        assignment.flow.resize_with(m, Vec::new);
        for (i, row) in assignment.flow.iter_mut().enumerate() {
            // Model node 1+i's arcs: [0] is the residual of source→model,
            // then one forward arc per device in index order.
            row.clear();
            row.extend((0..d).map(|j| {
                let e = &graph[1 + i][1 + j];
                debug_assert_eq!(e.to, 1 + m + j, "arc order is construction order");
                // The reverse arc lives on the device node.
                graph[e.to][e.rev].cap
            }));
        }
        assignment.cost = total_cost as u64;
        assignment.shipped = shipped;
        assignment
    }
}

/// Solves the instance exactly with a fresh [`FlowWorkspace`]; see
/// [`FlowWorkspace::solve`]. A loop that solves every tick keeps one
/// workspace instead.
pub fn solve(p: &FlowProblem) -> FlowAssignment {
    let mut ws = FlowWorkspace::default();
    ws.solve(p);
    ws.assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Greedy reference plan the exact solver is cross-checked against.
    ///
    /// Bound: this instance is a *complete bipartite* transportation problem —
    /// every unit of demand may ship over any arc — so any maximal strategy,
    /// greedy included, ships exactly `F = min(Σ demands, Σ capacities)` units,
    /// the same volume as the optimum. With `c_min`/`c_max` the smallest and
    /// largest per-unit arc costs, `cost(greedy) <= c_max * F` while
    /// `cost(OPT) >= c_min * F`, hence `cost(greedy) <= (c_max / c_min) *
    /// cost(OPT)` (and greedy is exact when all arc costs are equal). The
    /// ratio is tight only when greedy is forced onto c_max arcs, i.e. when
    /// cheap devices are saturated — the common case lands far closer.
    fn solve_greedy(p: &FlowProblem) -> FlowAssignment {
        p.validate();
        let m = p.demands.len();
        let d = p.capacities.len();
        let mut order: Vec<(u64, usize, usize)> = Vec::with_capacity(m * d);
        for (i, row) in p.costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                order.push((c, i, j));
            }
        }
        // Total order (cost, model, device): no equal elements, so the sort is
        // deterministic regardless of algorithm stability.
        order.sort_unstable();
        let mut demand = p.demands.clone();
        let mut cap = p.capacities.clone();
        let mut flow = vec![vec![0u64; d]; m];
        let mut cost = 0u64;
        let mut shipped = 0u64;
        for (c, i, j) in order {
            let x = demand[i].min(cap[j]);
            if x == 0 {
                continue;
            }
            demand[i] -= x;
            cap[j] -= x;
            flow[i][j] += x;
            cost += c * x;
            shipped += x;
        }
        FlowAssignment { flow, cost, shipped }
    }

    fn problem(demands: &[u64], capacities: &[u64], costs: &[&[u64]]) -> FlowProblem {
        FlowProblem {
            demands: demands.to_vec(),
            capacities: capacities.to_vec(),
            costs: costs.iter().map(|r| r.to_vec()).collect(),
        }
    }

    #[test]
    fn ships_min_of_demand_and_capacity() {
        let p = problem(&[5, 3], &[4, 2], &[&[1, 2], &[3, 4]]);
        let a = solve(&p);
        assert_eq!(a.shipped, 6, "capacity-bound instance ships all capacity");
        let q = problem(&[1, 1], &[10, 10], &[&[1, 2], &[3, 4]]);
        assert_eq!(solve(&q).shipped, 2, "demand-bound instance ships all demand");
    }

    #[test]
    fn picks_the_cheap_assignment() {
        // Model 0 is cheap on device 1, model 1 cheap on device 0; both fit.
        let p = problem(&[2, 2], &[2, 2], &[&[10, 1], &[1, 10]]);
        let a = solve(&p);
        assert_eq!(a.flow, vec![vec![0, 2], vec![2, 0]]);
        assert_eq!(a.cost, 4);
        assert_eq!(a.placements(0), vec![1]);
        assert_eq!(a.placements(1), vec![0]);
    }

    #[test]
    fn splits_demand_when_the_cheap_device_is_full() {
        // 4 units of one hot model onto devices with capacity 3 + 3:
        // the optimum replicates — 3 on the cheap device, 1 on the other.
        let p = problem(&[4], &[3, 3], &[&[1, 5]]);
        let a = solve(&p);
        assert_eq!(a.flow, vec![vec![3, 1]]);
        assert_eq!(a.cost, 8);
        assert_eq!(a.placements(0), vec![0, 1]);
    }

    #[test]
    fn beats_or_matches_greedy_and_respects_its_bound() {
        // Greedy saturates device 0 with model 0 (cost 1 arcs) and then
        // pays 9 per unit for model 1; the exact solver crosses them.
        let p = problem(&[2, 2], &[2, 2], &[&[1, 2], &[2, 9]]);
        let exact = solve(&p);
        let greedy = solve_greedy(&p);
        assert_eq!(exact.shipped, greedy.shipped, "both ship F = min(demand, cap)");
        assert!(exact.cost <= greedy.cost);
        // The proven bound: greedy <= (c_max / c_min) * OPT.
        let c_min = 1u64;
        let c_max = 9u64;
        assert!(greedy.cost * c_min <= exact.cost * c_max);
    }

    #[test]
    fn zero_demand_and_zero_capacity_are_legal() {
        let p = problem(&[0, 4], &[0, 2], &[&[1, 1], &[1, 1]]);
        let a = solve(&p);
        assert_eq!(a.shipped, 2);
        assert_eq!(a.flow[0], vec![0, 0]);
        assert_eq!(a.flow[1], vec![0, 2]);
    }

    #[test]
    fn solver_is_deterministic_under_cost_ties() {
        // All-equal costs: the lexicographically first augmenting paths win,
        // so the plan is reproducible and prefers low indices.
        let p = problem(&[2, 2], &[2, 2], &[&[3, 3], &[3, 3]]);
        let a = solve(&p);
        let b = solve(&p);
        assert_eq!(a, b);
        assert_eq!(a.flow, vec![vec![2, 0], vec![0, 2]]);
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    fn fnv_feed(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(FNV_PRIME);
        }
    }

    /// A random instance: 1–30 models, a quarter of them demanding
    /// nothing, and 1–5 devices whose capacity ranges from below the total
    /// demand to twice it. Half the instances draw every cost from 1–3, so
    /// ties are the rule there.
    fn random_problem(rng: &mut simtime::DetRng) -> FlowProblem {
        let models = rng.range_u64(1, 31) as usize;
        let devices = rng.range_u64(1, 6) as usize;
        let demands: Vec<u64> = (0..models)
            .map(|_| if rng.range_u64(0, 4) == 0 { 0 } else { rng.range_u64(1, 40) })
            .collect();
        let total: u64 = demands.iter().sum();
        let per_device = total * rng.range_u64(1, 5) / 2 / devices as u64 + 1;
        let capacities = (0..devices).map(|_| rng.range_u64(0, 2 * per_device)).collect();
        let top = if rng.range_u64(0, 2) == 0 { 3 } else { 5_000 };
        let costs = (0..models)
            .map(|_| (0..devices).map(|_| rng.range_u64(1, top + 1)).collect())
            .collect();
        FlowProblem { demands, capacities, costs }
    }

    /// One workspace solves 256 random instances of every shape in turn,
    /// as the reconfiguration tick does, and each answer equals a fresh
    /// solve: nothing leaks from one instance into the next. The digest of
    /// the fresh assignments was computed before the workspace existed, so
    /// it also pins the tie-break.
    #[test]
    fn a_reused_workspace_solves_every_instance_like_a_fresh_one() {
        let mut rng = simtime::DetRng::new(0xF10E_5EED);
        let mut ws = FlowWorkspace::default();
        let mut digest = FNV_OFFSET;
        let (mut ties, mut short, mut ample) = (0, 0, 0);
        for case in 0..256 {
            let p = random_problem(&mut rng);
            let fresh = solve(&p);
            assert_eq!(ws.solve(&p), &fresh, "case {case}: {p:?}");
            let (demand, capacity) = (p.demands.iter().sum(), p.capacities.iter().sum::<u64>());
            short += usize::from(capacity < demand);
            ample += usize::from(capacity > demand);
            ties += usize::from(p.costs.iter().flatten().all(|&c| c <= 3));
            for &f in fresh.flow.iter().flatten() {
                fnv_feed(&mut digest, f);
            }
            fnv_feed(&mut digest, fresh.cost);
            fnv_feed(&mut digest, fresh.shipped);
        }
        assert!(ties > 100 && short > 100 && ample > 100, "{ties} {short} {ample}");
        assert_eq!(digest, 0x9377_ef2c_7909_4709, "the assignments moved");
    }

    #[test]
    #[should_panic(expected = "one cost row per model")]
    fn shape_mismatch_is_rejected() {
        let p = problem(&[1, 2], &[1], &[&[1]]);
        solve(&p);
    }
}
