//! The traced replay: one op re-run call by call through the same public
//! functions its entry point makes, with a span around each call and the
//! layers' own counters collected from what each call returns.

use crate::op::{held_out_packets, profile, Raw};
use crate::trace::Tracer;
use crate::workload::{Flow, Instance, Workload};
use croxmap_core::baseline::{greedy_first_fit, local_search_area, local_search_routes};
use croxmap_core::pipeline::{refine_pairwise, OptimizationRun, TimedMapping};
use croxmap_core::{Mapping, MappingIlp, MappingObjective};
use croxmap_ilp::{tol, DeterministicClock, Phase, SolveResult, SolveStatus, Solver, SolverConfig};
use croxmap_snn::Network;
use std::collections::BTreeMap;

/// Named counters summed over a run's replayed ops.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    sums: BTreeMap<String, f64>,
    maxes: BTreeMap<String, f64>,
    /// `(layer, wall_s, det_s)` of every timed solver-side call, for the
    /// ns/tick calibration table.
    pub calibration: Vec<(&'static str, f64, f64)>,
    /// Whether every solve's phase ticks summed exactly to its det ticks.
    pub phases_exact: bool,
}

impl Layers {
    /// Empty counters.
    #[must_use]
    pub fn new() -> Self {
        Layers {
            phases_exact: true,
            ..Layers::default()
        }
    }

    /// Adds `value` to counter `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.sums.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Raises the running maximum `name` to `value`.
    pub fn max(&mut self, name: &str, value: f64) {
        let slot = self.maxes.entry(name.to_string()).or_insert(value);
        *slot = slot.max(value);
    }

    /// Sum of counter `name` (0 when never added).
    #[must_use]
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Maximum recorded under `name` (0 when never recorded).
    #[must_use]
    pub fn peak(&self, name: &str) -> f64 {
        self.maxes.get(name).copied().unwrap_or(0.0)
    }
}

fn record_solve(
    layers: &mut Layers,
    label: &'static str,
    wall: f64,
    budget: f64,
    warm: Option<f64>,
    r: &SolveResult,
) {
    layers.calibration.push((label, wall, r.det_time));
    layers.add("solves", 1.0);
    layers.add("solver.wall_s", wall);
    layers.add("solver.det_s", r.det_time);
    layers.add(
        "solver.optimal",
        f64::from(u8::from(r.status == SolveStatus::Optimal)),
    );
    layers.add("solver.budget_used", r.det_time / budget);
    layers.add("solver.nodes", r.nodes as f64);
    layers.add("solver.incumbents", r.incumbents.len() as f64);
    layers.add("solver.lp_fallbacks", r.lp_fallbacks as f64);
    let first = r
        .incumbents
        .iter()
        .find(|ev| warm.is_none_or(|w| ev.objective < w - tol::OBJ_AGREE))
        .map_or(r.det_time, |ev| ev.det_time);
    layers.add("solver.first_improvement_det_s", first);
    for phase in Phase::ALL {
        layers.add(
            &format!("solver.phase.{}.det_s", phase.name()),
            r.phases.seconds(phase),
        );
        layers.add(
            &format!("solver.phase.{}.count", phase.name()),
            r.phases.count(phase) as f64,
        );
    }
    if r.phases.total_ticks() != DeterministicClock::seconds_to_ticks(r.det_time) {
        layers.phases_exact = false;
    }
    let p = &r.presolve;
    layers.add("presolve.rows_removed", p.rows_removed as f64);
    layers.add("presolve.cols_removed", p.cols_removed as f64);
    layers.add("presolve.nnz_before", p.nnz_before as f64);
    layers.add("presolve.nnz_after", p.nnz_after as f64);
    layers.add("cuts.rounds", f64::from(r.cuts.rounds));
    layers.add("cuts.added", r.cuts.cuts_added as f64);
    if r.cuts.root_bound_before.is_finite() && r.cuts.root_bound_after.is_finite() {
        layers.add("cuts.root_solves", 1.0);
        layers.add("cuts.root_bound_before", r.cuts.root_bound_before);
        layers.add("cuts.root_bound_after", r.cuts.root_bound_after);
    }
    let f = &r.factor;
    layers.add("lp.refactors", f.refactors as f64);
    layers.add(
        "lp.refactor_det_s",
        DeterministicClock::ticks_to_seconds(f.refactor_ticks),
    );
    layers.add("lp.updates", f.updates as f64);
    layers.add("lp.update_nnz", f.update_nnz as f64);
    layers.add("lp.ftran_solves", f.ftran_solves as f64);
    layers.add("lp.btran_solves", f.btran_solves as f64);
    layers.add("lp.ftran_visited", f.ftran_visited as f64);
    layers.add("lp.btran_visited", f.btran_visited as f64);
    layers.add("lp.hyper_solves", (f.ftran_hyper + f.btran_hyper) as f64);
    layers.max("lp.growth_peak", f.growth_peak);
    if let Some(par) = &r.parallel {
        layers.add("parallel.epochs", par.epochs as f64);
        layers.add("parallel.steals", par.steals as f64);
        layers.add(
            "parallel.heuristic_incumbents",
            par.heuristic_incumbents as f64,
        );
    }
}

/// `run_ilp` of `core::pipeline`, call by call: warm start, solve, decode.
#[allow(clippy::too_many_arguments)]
fn solve_traced(
    t: &mut Tracer,
    layers: &mut Layers,
    label: &'static str,
    network: &Network,
    ilp: &MappingIlp,
    warm: Option<&Mapping>,
    warm_objective: Option<f64>,
    config: &SolverConfig,
) -> OptimizationRun {
    let warm_vec = warm.map(|m| t.span("formulation.warm_start", |_| ilp.warm_start(network, m)));
    let solver = Solver::new(config.clone());
    let start = t.spans().len();
    let result = t.span(label, |_| {
        solver.solve_with_callback(ilp.model(), warm_vec.as_deref(), |_| {})
    });
    let wall = t.spans()[start].duration();
    record_solve(
        layers,
        label,
        wall,
        config.det_time_limit,
        warm_objective,
        &result,
    );
    let incumbents = t.span("formulation.decode", |_| {
        result
            .incumbents
            .iter()
            .map(|ev| TimedMapping {
                det_time: ev.det_time,
                objective: ev.objective,
                mapping: ilp.decode(&ev.solution),
            })
            .collect()
    });
    OptimizationRun {
        incumbents,
        status: result.status,
        best_bound: result.best_bound,
        det_time: result.det_time,
    }
}

fn build_traced(
    t: &mut Tracer,
    layers: &mut Layers,
    instance: &Instance,
    objective: &MappingObjective,
    formulation: &croxmap_core::FormulationConfig,
) -> MappingIlp {
    let ilp = t.span("formulation.build", |_| {
        MappingIlp::build(&instance.network, &instance.pool, objective, formulation)
    });
    layers.add("formulation.builds", 1.0);
    layers.add("formulation.vars", ilp.model().num_vars() as f64);
    layers.add("formulation.rows", ilp.model().num_constraints() as f64);
    ilp
}

/// `optimize_area` of `core::pipeline`, call by call.
fn replay_area(
    t: &mut Tracer,
    layers: &mut Layers,
    workload: &Workload,
    instance: &Instance,
) -> Raw {
    let config = workload.pipeline();
    let (network, pool) = (&instance.network, &instance.pool);
    let greedy = t
        .span("baseline.greedy", |_| greedy_first_fit(network, pool))
        .ok();
    let seed = greedy.map(|g| {
        layers.add("baseline.greedy_area", g.area(pool));
        t.span("baseline.local_search", |_| {
            local_search_area(network, pool, &g, 64)
        })
    });
    if let Some(seed) = &seed {
        layers.add("baseline.seed_area", seed.area(pool));
    }
    let ilp = build_traced(
        t,
        layers,
        instance,
        &MappingObjective::Area,
        &config.formulation,
    );
    let mut incumbents: Vec<TimedMapping> = Vec::new();
    let mut refine_time = 0.0;
    let warm = seed.map(|seed| {
        incumbents.push(TimedMapping {
            det_time: 0.0,
            objective: seed.area(pool),
            mapping: seed.clone(),
        });
        let start = t.spans().len();
        let (improvements, spent) = t.span("refine", |_| {
            refine_pairwise(
                network,
                pool,
                &seed,
                &config.solver,
                config.solver.det_time_limit * 0.5,
            )
        });
        let wall = t.spans()[start].duration();
        layers.calibration.push(("refine", wall, spent));
        layers.add("refine.wall_s", wall);
        layers.add("refine.det_s", spent);
        layers.add("refine.improvements", improvements.len() as f64);
        refine_time = spent;
        let best = improvements.last().map_or(seed, |tm| tm.mapping.clone());
        incumbents.extend(improvements);
        best
    });
    let remaining = SolverConfig {
        det_time_limit: (config.solver.det_time_limit - refine_time).max(0.1),
        ..config.solver.clone()
    };
    let warm_area = warm.as_ref().map(|m| m.area(pool));
    let mut run = solve_traced(
        t,
        layers,
        "solver.area",
        network,
        &ilp,
        warm.as_ref(),
        warm_area,
        &remaining,
    );
    let best_so_far = incumbents.last().map(|tm| tm.objective);
    for inc in run.incumbents {
        if best_so_far.is_some_and(|b| inc.objective >= b - tol::OBJ_AGREE) {
            continue;
        }
        incumbents.push(TimedMapping {
            det_time: inc.det_time + refine_time,
            objective: inc.objective,
            mapping: inc.mapping,
        });
    }
    run.incumbents = incumbents;
    run.det_time += refine_time;
    if let Some(mapping) = run.best_mapping() {
        let _ = t.span("mapping.validate", |_| mapping.validate(network, pool));
    }
    Raw {
        runs: vec![run],
        weights: Vec::new(),
        packets: 0,
    }
}

/// `optimize_routes_after_area` then `optimize_pgo_after_area`, call by
/// call, with the profiling and held-out simulation around them.
fn replay_routes_pgo(
    t: &mut Tracer,
    layers: &mut Layers,
    workload: &Workload,
    instance: &Instance,
) -> Raw {
    let config = workload.pipeline();
    let (network, pool) = (&instance.network, &instance.pool);
    let Some(inputs) = &instance.pgo else {
        return Raw {
            runs: Vec::new(),
            weights: Vec::new(),
            packets: 0,
        };
    };
    let base = &inputs.base;
    layers.add("baseline.greedy_area", instance.greedy_area);
    layers.add("baseline.seed_area", instance.seed_area);
    let profile = t.span("sim.profile", |_| profile(network, &inputs.profile_events));
    let weights = profile.counts().to_vec();
    layers.add("sim.events", inputs.profile_events.len() as f64);
    layers.add("sim.spikes", profile.total() as f64);

    let objectives = [
        (MappingObjective::GlobalRoutes, None, "solver.snu"),
        (
            MappingObjective::PgoPackets(weights.clone()),
            Some(weights.as_slice()),
            "solver.pgo",
        ),
    ];
    let mut runs = Vec::new();
    for (objective, w, label) in objectives {
        let formulation = t.span("formulation.restrict", |_| {
            config.formulation.clone().restricted_to(base)
        });
        let ilp = build_traced(t, layers, instance, &objective, &formulation);
        let warm = t.span("baseline.local_search", |_| {
            local_search_routes(network, pool, base, w, 32)
        });
        let warm_objective = match w {
            None => croxmap_sim::count_routes(network, warm.assignment()).global as f64,
            Some(w) => croxmap_sim::predicted_global_packets(network, warm.assignment(), w) as f64,
        };
        let run = solve_traced(
            t,
            layers,
            label,
            network,
            &ilp,
            Some(&warm),
            Some(warm_objective),
            &config.solver,
        );
        if let Some(mapping) = run.best_mapping() {
            let _ = t.span("mapping.validate", |_| mapping.validate(network, pool));
        }
        runs.push(run);
    }
    let final_mapping = runs[1].best_mapping().unwrap_or(base);
    let (packets, spikes) = t.span("sim.eval", |_| {
        held_out_packets(network, final_mapping, &inputs.eval_events)
    });
    layers.add("sim.events", inputs.eval_events.len() as f64);
    layers.add("sim.spikes", spikes as f64);
    Raw {
        runs,
        weights,
        packets,
    }
}

/// Replays one op call by call inside `t`, adding the layers' counters to
/// `layers`. Returns what the entry point would have returned.
pub fn replay_op(
    t: &mut Tracer,
    layers: &mut Layers,
    workload: &Workload,
    instance: &Instance,
) -> Raw {
    layers.add("ops", 1.0);
    match workload.flow {
        Flow::Area => replay_area(t, layers, workload, instance),
        Flow::RoutesPgo => replay_routes_pgo(t, layers, workload, instance),
    }
}
