//! One benchmark operation through the public entry points, exactly as
//! `examples/` call them, and the output checks every op must pass.

use crate::clock::Stopwatch;
use crate::workload::{Flow, Instance, Workload, WINDOW};
use croxmap_core::baseline::local_search_routes;
use croxmap_core::pipeline::{
    optimize_area, optimize_pgo_after_area, optimize_routes_after_area, OptimizationRun,
};
use croxmap_core::Mapping;
use croxmap_gen::smartpixel::{self, EventSet};
use croxmap_ilp::{tol, SolveStatus};
use croxmap_mca::CrossbarPool;
use croxmap_sim::{
    count_packets, count_routes, predicted_global_packets, LifSimulator, SpikeProfile,
};
use croxmap_snn::Network;
use std::collections::BTreeSet;

/// Why an op failed. Every variant but `BudgetUnspent` means a wrong
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reason {
    /// The flow returned no mapping at all.
    NoMapping,
    /// `Mapping::validate` rejected the mapping.
    InvalidMapping,
    /// The reported area differs from a recount over the pool's slot costs.
    AreaRecount,
    /// The SNU/PGO objective differs from the simulator's recount.
    ObjectiveRecount,
    /// SNU/PGO increased the base area.
    AreaIncreased,
    /// The result is worse than the warm start it was given.
    WorseThanWarmStart,
    /// The solve stopped below 90 % of its budget without a verdict
    /// (neither Optimal nor Infeasible).
    BudgetUnspent,
    /// The traced replay did not reproduce the untraced op bit for bit.
    ReplayMismatch,
}

impl Reason {
    /// Name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Reason::NoMapping => "no_mapping",
            Reason::InvalidMapping => "invalid_mapping",
            Reason::AreaRecount => "area_recount",
            Reason::ObjectiveRecount => "objective_recount",
            Reason::AreaIncreased => "area_increased",
            Reason::WorseThanWarmStart => "worse_than_warm_start",
            Reason::BudgetUnspent => "budget_unspent",
            Reason::ReplayMismatch => "replay_mismatch",
        }
    }

    /// Whether this reason means the program's output is wrong (as opposed
    /// to the solver leaving its budget unspent).
    #[must_use]
    pub fn is_wrong_output(self) -> bool {
        self != Reason::BudgetUnspent
    }
}

/// What one op's flow returned, before any check.
#[derive(Debug, Clone)]
pub struct Raw {
    /// `[area run]` for the area flow, `[SNU run, PGO run]` otherwise.
    pub runs: Vec<OptimizationRun>,
    /// PGO profile weights (SNU/PGO flow only).
    pub weights: Vec<u64>,
    /// Held-out inter-crossbar packets of the PGO mapping (SNU/PGO flow).
    pub packets: u64,
}

/// The fields of one solve that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveKey {
    /// Final status.
    pub status: SolveStatus,
    /// `best_objective` bits (`None` without a mapping).
    pub objective: Option<u64>,
    /// `best_bound` bits.
    pub best_bound: u64,
    /// `det_time` bits.
    pub det_time: u64,
    /// `(det_time, objective)` bits of every incumbent, in order.
    pub incumbents: Vec<(u64, u64)>,
}

impl SolveKey {
    fn of(run: &OptimizationRun) -> Self {
        SolveKey {
            status: run.status,
            objective: run.best_objective().map(f64::to_bits),
            best_bound: run.best_bound.to_bits(),
            det_time: run.det_time.to_bits(),
            incumbents: run
                .incumbents
                .iter()
                .map(|t| (t.det_time.to_bits(), t.objective.to_bits()))
                .collect(),
        }
    }
}

/// A checked op.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall seconds of the flow (checks excluded).
    pub wall_s: f64,
    /// Det-seconds over the op's solves.
    pub det_s: f64,
    /// Bit-exact identity of each solve.
    pub keys: Vec<SolveKey>,
    /// Memristor area of the final mapping.
    pub area: f64,
    /// Memristor area of the greedy first-fit mapping of the same network.
    pub greedy_area: f64,
    /// Area proof gap (area flow).
    pub area_gap: Option<f64>,
    /// Global routes after SNU.
    pub global_routes: Option<f64>,
    /// SNU proof gap.
    pub routes_gap: Option<f64>,
    /// Held-out packets of the PGO mapping.
    pub packets: Option<u64>,
    /// PGO proof gap.
    pub pgo_gap: Option<f64>,
    /// Failed checks, sorted and deduplicated.
    pub failures: Vec<Reason>,
}

impl Outcome {
    /// Whether every check passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// `(objective − max(bound, 0)) / objective`; a missing bound reads 1.
#[must_use]
pub fn gap(objective: f64, bound: f64) -> f64 {
    if objective <= 0.0 {
        return 0.0;
    }
    ((objective - bound.max(0.0)) / objective).clamp(0.0, 1.0)
}

fn agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= tol::VERIFY * a.abs().max(b.abs()).max(1.0)
}

/// Area recount from the pool's slot costs, independent of `Mapping::area`.
fn recount_area(mapping: &Mapping, pool: &CrossbarPool) -> f64 {
    let used: BTreeSet<usize> = mapping.assignment().iter().copied().collect();
    used.into_iter().map(|j| pool.slot(j).cost).sum()
}

fn budget_unspent(run: &OptimizationRun, budget: f64) -> bool {
    !matches!(run.status, SolveStatus::Optimal | SolveStatus::Infeasible)
        && run.det_time < 0.9 * budget
}

/// LIF spike profile of the profiling sample.
#[must_use]
pub fn profile(network: &Network, events: &EventSet) -> SpikeProfile {
    let simulator = LifSimulator::default();
    let mut profile = SpikeProfile::with_len(network.node_count());
    for event in events.events() {
        let stim = smartpixel::encode(network, event, WINDOW);
        let record = simulator.run(network, &stim, WINDOW);
        profile.merge(&SpikeProfile::from_record(&record));
    }
    profile
}

/// Held-out inter-crossbar packets of `mapping`, and the spikes the
/// simulation fired.
#[must_use]
pub fn held_out_packets(network: &Network, mapping: &Mapping, events: &EventSet) -> (u64, u64) {
    let simulator = LifSimulator::default();
    let (mut packets, mut spikes) = (0, 0);
    for event in events.events() {
        let stim = smartpixel::encode(network, event, WINDOW);
        let record = simulator.run(network, &stim, WINDOW);
        packets += count_packets(network, mapping.assignment(), &record).global;
        spikes += record.total_fires();
    }
    (packets, spikes)
}

/// Runs one op untraced through the public entry points and checks it.
#[must_use]
pub fn run_op(workload: &Workload, instance: &Instance) -> Outcome {
    let config = workload.pipeline();
    let (network, pool) = (&instance.network, &instance.pool);
    let watch = Stopwatch::start();
    let raw = match &instance.pgo {
        None => Raw {
            runs: vec![optimize_area(network, pool, &config)],
            weights: Vec::new(),
            packets: 0,
        },
        Some(inputs) => {
            let profile = profile(network, &inputs.profile_events);
            let snu = optimize_routes_after_area(network, pool, &inputs.base, &config);
            let pgo =
                optimize_pgo_after_area(network, pool, &inputs.base, profile.counts(), &config);
            let (packets, _) = held_out_packets(
                network,
                pgo.best_mapping().unwrap_or(&inputs.base),
                &inputs.eval_events,
            );
            Raw {
                runs: vec![snu, pgo],
                weights: profile.counts().to_vec(),
                packets,
            }
        }
    };
    let wall_s = watch.seconds();
    assess(workload, instance, &raw, wall_s)
}

/// Checks one op's outputs and extracts its quality metrics.
#[must_use]
pub fn assess(workload: &Workload, instance: &Instance, raw: &Raw, wall_s: f64) -> Outcome {
    let (network, pool) = (&instance.network, &instance.pool);
    let mut failures = Vec::new();
    let mut outcome = Outcome {
        wall_s,
        det_s: raw.runs.iter().map(|r| r.det_time).sum(),
        keys: raw.runs.iter().map(SolveKey::of).collect(),
        area: instance.seed_area,
        greedy_area: instance.greedy_area,
        area_gap: None,
        global_routes: None,
        routes_gap: None,
        packets: None,
        pgo_gap: None,
        failures: Vec::new(),
    };
    for run in &raw.runs {
        if budget_unspent(run, workload.budget) {
            failures.push(Reason::BudgetUnspent);
        }
    }
    match workload.flow {
        Flow::Area => {
            let run = &raw.runs[0];
            match (run.best_mapping(), run.best_objective()) {
                (Some(mapping), Some(objective)) => {
                    if mapping.validate(network, pool).is_err() {
                        failures.push(Reason::InvalidMapping);
                    }
                    if !agree(recount_area(mapping, pool), objective) {
                        failures.push(Reason::AreaRecount);
                    }
                    if objective > instance.seed_area + tol::VERIFY {
                        failures.push(Reason::WorseThanWarmStart);
                    }
                    outcome.area = objective;
                    outcome.area_gap = Some(gap(objective, run.best_bound));
                }
                _ => failures.push(Reason::NoMapping),
            }
        }
        Flow::RoutesPgo => {
            let Some(inputs) = &instance.pgo else {
                failures.push(Reason::NoMapping);
                outcome.failures = failures;
                return outcome;
            };
            let base_area = recount_area(&inputs.base, pool);
            let weights = raw.weights.as_slice();
            let routes = |m: &Mapping| count_routes(network, m.assignment()).global as f64;
            let predicted =
                |m: &Mapping| predicted_global_packets(network, m.assignment(), weights) as f64;
            let snu_warm = routes(&local_search_routes(network, pool, &inputs.base, None, 32));
            let pgo_warm = predicted(&local_search_routes(
                network,
                pool,
                &inputs.base,
                Some(weights),
                32,
            ));
            let checks = [
                (
                    &raw.runs[0],
                    raw.runs[0].best_mapping().map(routes),
                    snu_warm,
                ),
                (
                    &raw.runs[1],
                    raw.runs[1].best_mapping().map(predicted),
                    pgo_warm,
                ),
            ];
            for (run, recounted, warm) in checks {
                let (Some(mapping), Some(objective), Some(recounted)) =
                    (run.best_mapping(), run.best_objective(), recounted)
                else {
                    failures.push(Reason::NoMapping);
                    continue;
                };
                if mapping.validate(network, pool).is_err() {
                    failures.push(Reason::InvalidMapping);
                }
                if recount_area(mapping, pool) > base_area + tol::VERIFY {
                    failures.push(Reason::AreaIncreased);
                }
                if !agree(recounted, objective) {
                    failures.push(Reason::ObjectiveRecount);
                }
                if objective > warm + tol::VERIFY {
                    failures.push(Reason::WorseThanWarmStart);
                }
            }
            let (snu, pgo) = (&raw.runs[0], &raw.runs[1]);
            if let Some(objective) = snu.best_objective() {
                outcome.global_routes = Some(objective);
                outcome.routes_gap = Some(gap(objective, snu.best_bound));
            }
            if let (Some(mapping), Some(objective)) = (pgo.best_mapping(), pgo.best_objective()) {
                outcome.area = recount_area(mapping, pool);
                outcome.pgo_gap = Some(gap(objective, pgo.best_bound));
            }
            outcome.packets = Some(raw.packets);
        }
    }
    failures.sort_unstable();
    failures.dedup();
    outcome.failures = failures;
    outcome
}
