//! Max-min fair bandwidth allocation by progressive filling.
//!
//! Each flow crosses a set of capacity constraints (network links and
//! server resources, treated uniformly). Allocation starts at each
//! flow's guaranteed minimum (its virtual-circuit reservation, 0 for
//! best-effort flows) and grows uniformly across all unfrozen flows
//! until either a constraint saturates (its flows freeze at the fair
//! share) or a flow reaches its own maximum (it freezes at its cap).
//! The result is the classic max-min fair allocation with floors and
//! ceilings.

/// Index of a capacity constraint in the solver's constraint table.
pub type ConstraintIx = usize;

/// One capacity constraint (a link direction or a server resource).
#[derive(Debug, Clone, Copy)]
pub struct CapacityConstraint {
    /// Capacity in bits per second.
    pub capacity_bps: f64,
}

/// One flow's demand for the solver.
#[derive(Debug, Clone)]
pub struct FlowDemand {
    /// Constraints the flow crosses (indices into the constraint
    /// table). Duplicate entries are permitted and count once.
    pub constraints: Vec<ConstraintIx>,
    /// Guaranteed minimum rate (virtual-circuit reservation), bps.
    pub min_rate_bps: f64,
    /// Maximum useful rate (TCP window cap etc.), bps. Use
    /// `f64::INFINITY` for unconstrained.
    pub max_rate_bps: f64,
}

/// Tolerance for saturation tests. Absolute, in the allocation's rate
/// unit; tiny relative to any real capacity.
const EPS: f64 = 1e-9;

/// Computes the max-min fair allocation. Returns one rate per flow, in
/// input order.
///
/// Guarantees that exceed a constraint's capacity are scaled down
/// proportionally on that constraint (over-admission is the admission
/// controller's bug, but the solver stays well-defined). Flows with an
/// empty constraint list receive their `max_rate_bps` (or their
/// guarantee if the cap is infinite).
///
/// # Panics
/// Panics when a flow names a constraint index outside `constraints`.
pub fn max_min_allocation(constraints: &[CapacityConstraint], flows: &[FlowDemand]) -> Vec<f64> {
    let capacities: Vec<f64> = constraints.iter().map(|c| c.capacity_bps).collect();
    let lists: Vec<Vec<ConstraintIx>> =
        flows.iter().map(|f| sorted_unique(f.constraints.iter().copied())).collect();
    let mut solver = Solver::default();
    solver.solve(
        &capacities,
        flows.iter().zip(&lists).map(|(f, cs)| (cs.as_slice(), f.min_rate_bps, f.max_rate_bps)),
    );
    solver.alloc
}

/// `cs` sorted ascending with duplicates removed: the constraint-list
/// form [`Solver::solve`] takes.
pub(crate) fn sorted_unique(cs: impl IntoIterator<Item = ConstraintIx>) -> Vec<ConstraintIx> {
    let mut v: Vec<ConstraintIx> = cs.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The progressive-filling solver with reusable working storage.
///
/// A solve touches only the constraints that carry at least one flow,
/// in ascending constraint-index order, through two compressed index
/// lists: each flow's constraints and each constraint's flows (in flow
/// order). Active-flow counts per constraint are kept incrementally.
/// Every rate is the result of exactly the floating-point operations,
/// in the same order, that a dense pass over all constraints and flows
/// performs: constraints without flows contribute no operation to any
/// rate, and each constraint's `remaining -= delta` runs once per
/// active flow on it, in a row. [`crate::NetworkSim`] keeps one solver
/// across recomputations, so a solve allocates nothing once the
/// buffers have grown to the largest flow set seen.
#[derive(Debug, Default)]
pub(crate) struct Solver {
    /// Per flow, in input order: the rate being built, its cap, and
    /// whether it can still grow.
    alloc: Vec<f64>,
    max: Vec<f64>,
    active: Vec<bool>,
    n_active: usize,
    /// Flow `f`'s constraints, as local indices, are
    /// `flow_cons[flow_off[f]..flow_off[f + 1]]`.
    flow_off: Vec<usize>,
    flow_cons: Vec<usize>,
    /// Indexed by global constraint: first the number of flows on it,
    /// then its local index.
    slot: Vec<usize>,
    /// Per used constraint (local index, ascending global index): its
    /// flows `con_flows[con_off[c]..con_off[c + 1]]` in flow order, its
    /// remaining capacity and its active-flow count.
    con_off: Vec<usize>,
    con_flows: Vec<usize>,
    remaining: Vec<f64>,
    counts: Vec<usize>,
}

impl Solver {
    /// Solves for `flows`, each given as (constraint list, guaranteed
    /// minimum, cap) with its list sorted ascending and free of
    /// duplicates. `capacities` is indexed by constraint. Read the
    /// result with [`Solver::rates`].
    ///
    /// # Panics
    /// Panics when a flow names a constraint index outside
    /// `capacities`.
    pub(crate) fn solve<'a>(
        &mut self,
        capacities: &[f64],
        flows: impl IntoIterator<Item = (&'a [ConstraintIx], f64, f64)>,
    ) {
        self.load(capacities, flows);
        self.scale_guarantees();
        self.fill();
    }

    /// One rate per flow of the last [`Solver::solve`], in input order.
    pub(crate) fn rates(&self) -> &[f64] {
        &self.alloc
    }

    /// Copies the flows in and builds both index lists. Leaves each
    /// used constraint's capacity in `remaining`.
    fn load<'a>(
        &mut self,
        capacities: &[f64],
        flows: impl IntoIterator<Item = (&'a [ConstraintIx], f64, f64)>,
    ) {
        self.alloc.clear();
        self.max.clear();
        self.flow_off.clear();
        self.flow_cons.clear();
        self.slot.clear();
        self.slot.resize(capacities.len(), 0);
        self.flow_off.push(0);
        for (cons, min_rate, max_rate) in flows {
            debug_assert!(cons.is_sorted_by(|a, b| a < b), "unsorted constraint list");
            self.alloc.push(min_rate.min(max_rate));
            self.max.push(max_rate);
            for &c in cons {
                assert!(c < capacities.len(), "constraint index out of range");
                self.slot[c] += 1;
            }
            self.flow_cons.extend_from_slice(cons);
            self.flow_off.push(self.flow_cons.len());
        }

        // Used constraints in ascending global order; `slot` switches
        // from flow count to local index.
        self.con_off.clear();
        self.remaining.clear();
        let mut end = 0;
        for (c, slot) in self.slot.iter_mut().enumerate() {
            if *slot > 0 {
                self.con_off.push(end);
                end += *slot;
                *slot = self.remaining.len();
                self.remaining.push(capacities[c]);
            }
        }
        self.con_off.push(end);

        // Each constraint's flows in flow order, with `counts` as the
        // fill cursor; flow lists switch to local indices.
        let used = self.remaining.len();
        self.counts.clear();
        self.counts.extend_from_slice(&self.con_off[..used]);
        self.con_flows.clear();
        self.con_flows.resize(end, 0);
        for f in 0..self.alloc.len() {
            for k in self.flow_off[f]..self.flow_off[f + 1] {
                let c = self.slot[self.flow_cons[k]];
                self.flow_cons[k] = c;
                self.con_flows[self.counts[c]] = f;
                self.counts[c] += 1;
            }
        }
    }

    /// Scales guarantees down where over-admitted, constraint by
    /// constraint in ascending order, then charges the (scaled)
    /// guarantees against each constraint's capacity.
    fn scale_guarantees(&mut self) {
        for c in 0..self.remaining.len() {
            let flows = &self.con_flows[self.con_off[c]..self.con_off[c + 1]];
            let capacity = self.remaining[c];
            let committed: f64 = flows.iter().map(|&f| self.alloc[f]).sum();
            if committed > capacity {
                let scale = capacity / committed;
                for &f in flows {
                    self.alloc[f] *= scale;
                }
            }
        }
        for c in 0..self.remaining.len() {
            let flows = &self.con_flows[self.con_off[c]..self.con_off[c + 1]];
            let r = &mut self.remaining[c];
            for &f in flows {
                *r -= self.alloc[f];
            }
            *r = r.max(0.0);
        }
    }

    /// Progressive filling from the (scaled) guarantees.
    fn fill(&mut self) {
        // Active = can still grow: below max and on no saturated
        // constraint. Flows with no constraints get their cap at once
        // (nothing to share against); infinite caps add nothing.
        self.active.clear();
        self.n_active = 0;
        for f in 0..self.alloc.len() {
            let unconstrained = self.flow_off[f] == self.flow_off[f + 1];
            let active = !unconstrained && self.alloc[f] + EPS < self.max[f];
            self.active.push(active);
            self.n_active += usize::from(active);
            if unconstrained && self.max[f].is_finite() {
                self.alloc[f] = self.max[f];
            }
        }
        self.counts.clear();
        self.counts.resize(self.remaining.len(), 0);
        for f in 0..self.alloc.len() {
            if self.active[f] {
                for &c in &self.flow_cons[self.flow_off[f]..self.flow_off[f + 1]] {
                    self.counts[c] += 1;
                }
            }
        }

        self.freeze_saturated();
        while self.n_active > 0 {
            // Largest uniform increment before a constraint saturates
            // or a flow hits its cap.
            let mut delta = f64::INFINITY;
            for (&r, &n) in self.remaining.iter().zip(&self.counts) {
                if n > 0 {
                    delta = delta.min(r / n as f64);
                }
            }
            for f in 0..self.alloc.len() {
                if self.active[f] {
                    delta = delta.min(self.max[f] - self.alloc[f]);
                }
            }
            if !delta.is_finite() || delta <= 0.0 {
                break;
            }

            for (r, &n) in self.remaining.iter_mut().zip(&self.counts) {
                for _ in 0..n {
                    *r -= delta;
                }
                *r = r.max(0.0);
            }
            for f in 0..self.alloc.len() {
                if self.active[f] {
                    self.alloc[f] += delta;
                    if self.alloc[f] + EPS >= self.max[f] {
                        self.deactivate(f);
                    }
                }
            }
            self.freeze_saturated();
        }
    }

    /// Freezes every active flow on a saturated constraint: it has no
    /// growth room left.
    fn freeze_saturated(&mut self) {
        for c in 0..self.remaining.len() {
            if self.remaining[c] <= EPS && self.counts[c] > 0 {
                for k in self.con_off[c]..self.con_off[c + 1] {
                    let f = self.con_flows[k];
                    if self.active[f] {
                        self.deactivate(f);
                    }
                }
            }
        }
    }

    fn deactivate(&mut self, f: usize) {
        self.active[f] = false;
        self.n_active -= 1;
        for &c in &self.flow_cons[self.flow_off[f]..self.flow_off[f + 1]] {
            self.counts[c] -= 1;
        }
    }
}

/// The dense progressive-filling loop the solver replaced: every pass
/// runs over all constraints and all flows. Kept as the reference the
/// bit-identity tests compare [`Solver`] against.
#[cfg(test)]
pub(crate) fn dense_max_min_allocation(
    constraints: &[CapacityConstraint],
    flows: &[FlowDemand],
) -> Vec<f64> {
    let mut alloc: Vec<f64> = flows.iter().map(|f| f.min_rate_bps.min(f.max_rate_bps)).collect();

    // De-duplicate each flow's constraint list once up front.
    let flow_constraints: Vec<Vec<ConstraintIx>> = flows
        .iter()
        .map(|f| {
            let mut v = f.constraints.clone();
            v.sort_unstable();
            v.dedup();
            for &c in &v {
                assert!(c < constraints.len(), "constraint index out of range");
            }
            v
        })
        .collect();

    // Scale guarantees down where over-admitted.
    for (ci, c) in constraints.iter().enumerate() {
        let committed: f64 = flows
            .iter()
            .enumerate()
            .filter(|(fi, _)| flow_constraints[*fi].contains(&ci))
            .map(|(fi, _)| alloc[fi])
            .sum();
        if committed > c.capacity_bps {
            let scale = c.capacity_bps / committed;
            for (fi, _) in flows.iter().enumerate() {
                if flow_constraints[fi].contains(&ci) {
                    alloc[fi] *= scale;
                }
            }
        }
    }

    let mut remaining: Vec<f64> = constraints.iter().map(|c| c.capacity_bps).collect();
    for (fi, _) in flows.iter().enumerate() {
        for &c in &flow_constraints[fi] {
            remaining[c] -= alloc[fi];
        }
    }
    for r in &mut remaining {
        *r = r.max(0.0);
    }

    // Active = can still grow: below max and on no saturated constraint.
    let mut active: Vec<bool> = flows
        .iter()
        .enumerate()
        .map(|(fi, f)| !flow_constraints[fi].is_empty() && alloc[fi] + EPS < f.max_rate_bps)
        .collect();
    // Flows with no constraints get their cap immediately (nothing to
    // share against); infinite caps degrade to zero extra.
    for (fi, f) in flows.iter().enumerate() {
        if flow_constraints[fi].is_empty() && f.max_rate_bps.is_finite() {
            alloc[fi] = f.max_rate_bps;
        }
    }

    loop {
        // Count active flows per constraint.
        let mut counts = vec![0usize; constraints.len()];
        for (fi, _) in flows.iter().enumerate() {
            if active[fi] {
                for &c in &flow_constraints[fi] {
                    counts[c] += 1;
                }
            }
        }

        // Freeze flows on already-saturated constraints.
        let mut changed = false;
        for (fi, _) in flows.iter().enumerate() {
            if active[fi]
                && flow_constraints[fi].iter().any(|&c| remaining[c] <= EPS && counts[c] > 0)
            {
                // Saturated constraint with active flows: no growth room.
                if flow_constraints[fi].iter().any(|&c| remaining[c] <= EPS) {
                    active[fi] = false;
                    changed = true;
                }
            }
        }
        if changed {
            continue;
        }

        if !active.iter().any(|&a| a) {
            break;
        }

        // Largest uniform increment before a constraint saturates or a
        // flow hits its cap.
        let mut delta = f64::INFINITY;
        for (ci, _) in constraints.iter().enumerate() {
            if counts[ci] > 0 {
                delta = delta.min(remaining[ci] / counts[ci] as f64);
            }
        }
        for (fi, f) in flows.iter().enumerate() {
            if active[fi] {
                delta = delta.min(f.max_rate_bps - alloc[fi]);
            }
        }
        if !delta.is_finite() || delta <= 0.0 {
            break;
        }

        for (fi, f) in flows.iter().enumerate() {
            if active[fi] {
                alloc[fi] += delta;
                for &c in &flow_constraints[fi] {
                    remaining[c] -= delta;
                }
                if alloc[fi] + EPS >= f.max_rate_bps {
                    active[fi] = false;
                }
            }
        }
        for r in &mut remaining {
            *r = r.max(0.0);
        }
        for (fi, _) in flows.iter().enumerate() {
            if active[fi] && flow_constraints[fi].iter().any(|&c| remaining[c] <= EPS) {
                active[fi] = false;
            }
        }
    }

    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn caps(v: &[f64]) -> Vec<CapacityConstraint> {
        v.iter().map(|&c| CapacityConstraint { capacity_bps: c }).collect()
    }

    fn flow(cs: &[usize], min: f64, max: f64) -> FlowDemand {
        FlowDemand { constraints: cs.to_vec(), min_rate_bps: min, max_rate_bps: max }
    }

    #[test]
    fn equal_split_single_link() {
        let a = max_min_allocation(
            &caps(&[10e9]),
            &[flow(&[0], 0.0, f64::INFINITY), flow(&[0], 0.0, f64::INFINITY)],
        );
        assert!((a[0] - 5e9).abs() < 1e3);
        assert!((a[1] - 5e9).abs() < 1e3);
    }

    #[test]
    fn capped_flow_frees_capacity() {
        let a = max_min_allocation(
            &caps(&[10e9]),
            &[flow(&[0], 0.0, 2e9), flow(&[0], 0.0, f64::INFINITY)],
        );
        assert!((a[0] - 2e9).abs() < 1e3);
        assert!((a[1] - 8e9).abs() < 1e3);
    }

    #[test]
    fn classic_three_flow_two_link() {
        // Link0: f0, f2. Link1: f1, f2. caps 10, 4.
        // f2 bottlenecked on link1 at 2, f1 gets 2, f0 gets 8.
        let a = max_min_allocation(
            &caps(&[10.0, 4.0]),
            &[
                flow(&[0], 0.0, f64::INFINITY),
                flow(&[1], 0.0, f64::INFINITY),
                flow(&[0, 1], 0.0, f64::INFINITY),
            ],
        );
        assert!((a[2] - 2.0).abs() < 1e-6, "{a:?}");
        assert!((a[1] - 2.0).abs() < 1e-6, "{a:?}");
        assert!((a[0] - 8.0).abs() < 1e-6, "{a:?}");
    }

    #[test]
    fn guaranteed_minimum_respected() {
        // Circuit flow guaranteed 6 of 10; one best-effort competitor.
        let a = max_min_allocation(
            &caps(&[10.0]),
            &[flow(&[0], 6.0, 6.0), flow(&[0], 0.0, f64::INFINITY)],
        );
        assert!((a[0] - 6.0).abs() < 1e-6);
        assert!((a[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn circuit_can_scavenge_above_guarantee() {
        // Guarantee 2, cap inf: alone on the link it takes everything.
        let a = max_min_allocation(&caps(&[10.0]), &[flow(&[0], 2.0, f64::INFINITY)]);
        assert!((a[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn over_admitted_guarantees_scale_down() {
        let a = max_min_allocation(&caps(&[10.0]), &[flow(&[0], 8.0, 8.0), flow(&[0], 8.0, 8.0)]);
        assert!((a[0] - 5.0).abs() < 1e-6);
        assert!((a[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn empty_constraint_list_gets_cap() {
        let a = max_min_allocation(&caps(&[]), &[flow(&[], 0.0, 7.0)]);
        assert_eq!(a, vec![7.0]);
    }

    #[test]
    fn duplicate_constraints_count_once() {
        let a = max_min_allocation(&caps(&[10.0]), &[flow(&[0, 0, 0], 0.0, f64::INFINITY)]);
        assert!((a[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn no_flows_is_empty() {
        assert!(max_min_allocation(&caps(&[1.0]), &[]).is_empty());
    }

    #[test]
    fn server_resource_models_eq2_sharing() {
        // Eq. 2's premise: a server cap R shared by concurrent
        // transfers. Three transfers through one server resource
        // (R = 2.19 Gbps) on otherwise-idle 10 G links.
        let a = max_min_allocation(
            &caps(&[2.19e9, 10e9, 10e9, 10e9]),
            &[
                flow(&[0, 1], 0.0, f64::INFINITY),
                flow(&[0, 2], 0.0, f64::INFINITY),
                flow(&[0, 3], 0.0, f64::INFINITY),
            ],
        );
        for r in a {
            assert!((r - 0.73e9).abs() < 1e3);
        }
    }

    proptest! {
        /// Feasibility: no constraint is ever over-allocated, and every
        /// flow is within [scaled-min, max].
        #[test]
        fn prop_feasible(
            ncons in 1usize..6,
            flows in proptest::collection::vec(
                (proptest::collection::vec(0usize..6, 0..4), 0.0f64..5.0, 0.1f64..50.0),
                1..12,
            ),
        ) {
            let constraints = caps(&vec![10.0; ncons]);
            let demands: Vec<FlowDemand> = flows
                .iter()
                .map(|(cs, min, max)| {
                    let cs: Vec<usize> = cs.iter().map(|&c| c % ncons).collect();
                    flow(&cs, min.min(*max), *max)
                })
                .collect();
            let alloc = max_min_allocation(&constraints, &demands);
            // Per-constraint feasibility.
            for ci in 0..ncons {
                let used: f64 = demands
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.constraints.contains(&ci))
                    .map(|(fi, _)| alloc[fi])
                    .sum();
                prop_assert!(used <= 10.0 + 1e-3, "constraint {ci} used {used}");
            }
            // Per-flow bounds.
            for (fi, d) in demands.iter().enumerate() {
                prop_assert!(alloc[fi] <= d.max_rate_bps + 1e-6);
                prop_assert!(alloc[fi] >= -1e-9);
            }
        }

        /// Pareto efficiency: any flow below its cap must cross at
        /// least one (numerically) saturated constraint.
        #[test]
        fn prop_pareto(
            flows in proptest::collection::vec(
                proptest::collection::vec(0usize..3, 1..3),
                1..8,
            ),
        ) {
            let constraints = caps(&[9.0, 9.0, 9.0]);
            let demands: Vec<FlowDemand> = flows
                .iter()
                .map(|cs| flow(cs, 0.0, f64::INFINITY))
                .collect();
            let alloc = max_min_allocation(&constraints, &demands);
            let mut used = [0.0f64; 3];
            for (fi, d) in demands.iter().enumerate() {
                let mut cs = d.constraints.clone();
                cs.sort_unstable();
                cs.dedup();
                for c in cs {
                    used[c] += alloc[fi];
                }
            }
            for (fi, d) in demands.iter().enumerate() {
                // Every flow here has infinite cap, so it must be
                // bottlenecked by a saturated constraint.
                let sat = d.constraints.iter().any(|&c| used[c] >= 9.0 - 1e-3);
                prop_assert!(sat, "flow {fi} rate {} not bottlenecked: used={used:?}", alloc[fi]);
            }
        }

        /// Bit-identity: the sparse solver returns exactly the dense
        /// loop's rates (`f64::to_bits`), both through the public
        /// wrapper and through one solver reused across tables of
        /// different shapes. Tables mix zero, finite and infinite
        /// capacities, constraints no flow uses, best-effort and
        /// guaranteed flows (over-admitted ones included), finite and
        /// infinite caps, and duplicate and empty constraint lists.
        #[test]
        fn prop_sparse_matches_dense_bit_for_bit(
            tables in proptest::collection::vec(
                (
                    1usize..9,
                    proptest::collection::vec((0u8..4, 0.0f64..20.0), 10),
                    proptest::collection::vec(
                        (
                            proptest::collection::vec(0usize..12, 0..6),
                            0u8..4,
                            0.0f64..15.0,
                            0u8..3,
                            0.1f64..30.0,
                        ),
                        0..10,
                    ),
                ),
                1..4,
            ),
        ) {
            let mut solver = Solver::default();
            for (ncons, cap_draws, flow_draws) in &tables {
                // Two trailing constraints that no flow can name.
                let constraints: Vec<CapacityConstraint> = cap_draws[..ncons + 2]
                    .iter()
                    .map(|&(kind, v)| CapacityConstraint {
                        capacity_bps: match kind {
                            0 => 0.0,
                            1 => f64::INFINITY,
                            _ => v,
                        },
                    })
                    .collect();
                let demands: Vec<FlowDemand> = flow_draws
                    .iter()
                    .map(|(cs, min_kind, min, max_kind, max)| {
                        let max = if *max_kind == 0 { f64::INFINITY } else { *max };
                        let min = match min_kind {
                            0 => 0.0,
                            1 => *min,
                            2 => *min * 4.0,
                            _ => max,
                        };
                        flow(&cs.iter().map(|&c| c % ncons).collect::<Vec<_>>(), min, max)
                    })
                    .collect();
                let dense = dense_max_min_allocation(&constraints, &demands);
                let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<u64>>();
                let wrapper = max_min_allocation(&constraints, &demands);
                prop_assert!(bits(&wrapper) == bits(&dense), "wrapper {wrapper:?} dense {dense:?}");
                let capacities: Vec<f64> = constraints.iter().map(|c| c.capacity_bps).collect();
                let lists: Vec<Vec<ConstraintIx>> = demands
                    .iter()
                    .map(|d| sorted_unique(d.constraints.iter().copied()))
                    .collect();
                solver.solve(
                    &capacities,
                    demands
                        .iter()
                        .zip(&lists)
                        .map(|(d, cs)| (cs.as_slice(), d.min_rate_bps, d.max_rate_bps)),
                );
                let reused = solver.rates();
                prop_assert!(bits(reused) == bits(&dense), "reused {reused:?} dense {dense:?}");
            }
        }
    }
}
