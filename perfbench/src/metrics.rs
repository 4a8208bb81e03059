//! Metric assembly, the human-readable report and the result line.

use crate::op::{Outcome, Reason};
use crate::replay::Layers;
use crate::trace::Tracer;
use croxmap_ilp::Phase;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics in the result line of an untraced run, as declared
/// in `BENCHMARK.json`: those every listed workload measures and that stay
/// steady across seeds. The rest are in the report only.
pub const END_TO_END: [&str; 3] = ["setup_s", "ns_per_tick", "area_vs_greedy"];

/// Per-layer metrics in the result line of a traced run, as declared in
/// `BENCHMARK.json`: every layer metric that every listed workload
/// measures. Wall times of layers that some workloads bypass are in the
/// report only.
pub const PER_LAYER: [&str; 62] = [
    "baseline.local_search_wall_s",
    "baseline.greedy_area",
    "baseline.seed_area",
    "refine.improvements",
    "formulation.build_wall_s",
    "formulation.vars",
    "formulation.rows",
    "formulation.decode_wall_s",
    "presolve.rows_removed",
    "presolve.cols_removed",
    "presolve.nnz_before",
    "presolve.nnz_after",
    "solver.wall_s",
    "solver.det_s",
    "solver.ns_per_tick",
    "solver.status",
    "solver.budget_used",
    "solver.nodes",
    "solver.nodes_per_det_s",
    "solver.incumbents",
    "solver.first_improvement_det_s",
    "solver.lp_fallbacks",
    "solver.phase.presolve.det_s",
    "solver.phase.presolve.count",
    "solver.phase.root_lp.det_s",
    "solver.phase.root_lp.count",
    "solver.phase.cuts.det_s",
    "solver.phase.cuts.count",
    "solver.phase.dive.det_s",
    "solver.phase.dive.count",
    "solver.phase.tree.det_s",
    "solver.phase.tree.count",
    "solver.phase.lns.det_s",
    "solver.phase.lns.count",
    "solver.phase.other.det_s",
    "solver.phase.other.count",
    "cuts.rounds",
    "cuts.added",
    "cuts.root_bound_before",
    "cuts.root_bound_after",
    "lp.refactors",
    "lp.refactor_det_s",
    "lp.refactors_per_node",
    "lp.updates",
    "lp.update_nnz",
    "lp.ftran_solves",
    "lp.btran_solves",
    "lp.ftran_visited_per_solve",
    "lp.btran_visited_per_solve",
    "lp.hyper_share",
    "lp.growth_peak",
    "parallel.epochs",
    "parallel.steals",
    "parallel.heuristic_incumbents",
    "sim.events",
    "sim.spikes",
    "mapping.validate_wall_s",
    "trace.overhead_s",
    "trace.spans",
    "trace.replay_mismatches",
    "check.phase_sum_mismatches",
    "check.failed_ops",
];

/// A per-op quality field that only some flows have.
type Field = fn(&Outcome) -> Option<f64>;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value summarises (sample count, normalisation).
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns a message where `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Failed ops per reason.
#[must_use]
pub fn failures_by_reason(ops: &[Outcome]) -> BTreeMap<Reason, usize> {
    let mut out = BTreeMap::new();
    for reason in ops.iter().flat_map(|o| o.failures.iter()) {
        *out.entry(*reason).or_insert(0) += 1;
    }
    out
}

/// Every end-to-end metric of a run. `ops` holds every op in order; the
/// first `pass` of them cover each instance once, and quality metrics and
/// `det_s` come from that pass, so they repeat exactly for a seed. Timing
/// metrics cover the ops that did not fail, over the whole run.
#[must_use]
pub fn end_to_end(setup_s: &[f64], ops: &[Outcome], pass: usize, rss_mb: f64) -> Vec<Metric> {
    let first = &ops[..pass.min(ops.len())];
    let ok: Vec<&Outcome> = ops.iter().filter(|o| o.ok()).collect();
    // With no successful op there is nothing to time but the failed ones;
    // the report says so through `timed ops`.
    let timed: Vec<&Outcome> = if ok.is_empty() {
        ops.iter().collect()
    } else {
        ok
    };
    let walls: Vec<f64> = timed.iter().map(|o| o.wall_s).collect();
    let per_tick: Vec<f64> = timed
        .iter()
        .filter(|o| o.det_s > 0.0)
        .map(|o| o.wall_s / o.det_s)
        .collect();
    let first_ok: Vec<&Outcome> = first.iter().filter(|o| o.ok()).collect();
    let validated: Vec<&Outcome> = first
        .iter()
        .filter(|o| {
            !o.failures
                .iter()
                .any(|r| matches!(r, Reason::NoMapping | Reason::InvalidMapping))
        })
        .collect();
    let opt_mean = |f: Field| -> Option<f64> {
        let v: Vec<f64> = validated.iter().filter_map(|o| f(o)).collect();
        (!v.is_empty()).then(|| mean(&v))
    };
    let n_timed = format!("median of {} timed ops", walls.len());
    let mut out = vec![
        metric(
            "setup_s",
            median(setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        ),
        metric("wall_s", median(&walls), "s", n_timed.clone()),
        metric(
            "det_s",
            mean(&first_ok.iter().map(|o| o.det_s).collect::<Vec<_>>()),
            "det-s",
            format!("mean over {} ok ops of the first pass", first_ok.len()),
        ),
        metric("ns_per_tick", median(&per_tick), "ns", n_timed),
        metric("peak_rss_mb", rss_mb, "MiB", "VmHWM of this process"),
        metric(
            "area",
            mean(&validated.iter().map(|o| o.area).collect::<Vec<_>>()),
            "memristors",
            format!(
                "mean over {} validated ops of the first pass",
                validated.len()
            ),
        ),
        metric(
            "area_vs_greedy",
            mean(
                &validated
                    .iter()
                    .map(|o| o.area / o.greedy_area)
                    .collect::<Vec<_>>(),
            ),
            "ratio",
            "final area / greedy first-fit area, mean over the same ops",
        ),
    ];
    let quality: [(&str, &'static str, Field); 5] = [
        ("area_gap", "ratio", |o| o.area_gap),
        ("global_routes", "routes", |o| o.global_routes),
        ("routes_gap", "ratio", |o| o.routes_gap),
        ("packets", "packets", |o| o.packets.map(|p| p as f64)),
        ("pgo_gap", "ratio", |o| o.pgo_gap),
    ];
    for (name, unit, f) in quality {
        if let Some(v) = opt_mean(f) {
            out.push(metric(
                name,
                v,
                unit,
                "mean over validated ops of the first pass",
            ));
        }
    }
    let failed = ops.iter().filter(|o| !o.ok()).count();
    out.push(metric(
        "failed_share",
        ratio(failed as f64, ops.len() as f64),
        "ratio",
        format!("{failed} of {} ops", ops.len()),
    ));
    out
}

/// Per-layer metrics of a traced run over `ops` replayed ops.
#[must_use]
pub fn per_layer(layers: &Layers, extra: &[Metric]) -> Vec<Metric> {
    let ops = layers.sum("ops");
    let solves = layers.sum("solves");
    let builds = layers.sum("formulation.builds");
    let per_op = |name: &str| ratio(layers.sum(name), ops);
    let per_solve = |name: &str| ratio(layers.sum(name), solves);
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, note: &str| {
        out.push(metric(name, value, unit, note));
    };
    push(
        "baseline.greedy_wall_s",
        per_op("baseline.greedy"),
        "s",
        "per op",
    );
    push(
        "baseline.local_search_wall_s",
        per_op("baseline.local_search"),
        "s",
        "per op",
    );
    push(
        "baseline.greedy_area",
        per_op("baseline.greedy_area"),
        "memristors",
        "per op",
    );
    push(
        "baseline.seed_area",
        per_op("baseline.seed_area"),
        "memristors",
        "per op",
    );
    push("refine.wall_s", per_op("refine.wall_s"), "s", "per op");
    push("refine.det_s", per_op("refine.det_s"), "det-s", "per op");
    push(
        "refine.ns_per_tick",
        ratio(layers.sum("refine.wall_s"), layers.sum("refine.det_s")),
        "ns",
        "refine wall / refine det",
    );
    push(
        "refine.improvements",
        per_op("refine.improvements"),
        "count",
        "per op",
    );
    push(
        "formulation.build_wall_s",
        per_op("formulation.build"),
        "s",
        "per op",
    );
    push(
        "formulation.vars",
        ratio(layers.sum("formulation.vars"), builds),
        "count",
        "per model",
    );
    push(
        "formulation.rows",
        ratio(layers.sum("formulation.rows"), builds),
        "count",
        "per model",
    );
    push(
        "formulation.decode_wall_s",
        per_op("formulation.decode"),
        "s",
        "per op",
    );
    for name in ["rows_removed", "cols_removed", "nnz_before", "nnz_after"] {
        push(
            &format!("presolve.{name}"),
            per_solve(&format!("presolve.{name}")),
            "count",
            "per solve",
        );
    }
    push("solver.wall_s", per_op("solver.wall_s"), "s", "per op");
    push("solver.det_s", per_op("solver.det_s"), "det-s", "per op");
    push(
        "solver.ns_per_tick",
        ratio(layers.sum("solver.wall_s"), layers.sum("solver.det_s")),
        "ns",
        "solver wall / solver det",
    );
    push(
        "solver.status",
        per_solve("solver.optimal"),
        "optimal/solve",
        "share of solves proven Optimal",
    );
    push(
        "solver.budget_used",
        per_solve("solver.budget_used"),
        "ratio",
        "det / budget, per solve",
    );
    push(
        "solver.nodes",
        per_solve("solver.nodes"),
        "count",
        "per solve",
    );
    push(
        "solver.nodes_per_det_s",
        ratio(layers.sum("solver.nodes"), layers.sum("solver.det_s")),
        "1/det-s",
        "nodes / solver det",
    );
    push(
        "solver.incumbents",
        per_solve("solver.incumbents"),
        "count",
        "per solve",
    );
    push(
        "solver.first_improvement_det_s",
        per_solve("solver.first_improvement_det_s"),
        "det-s",
        "per solve; the solve's det when it never beats its warm start",
    );
    push(
        "solver.lp_fallbacks",
        per_solve("solver.lp_fallbacks"),
        "count",
        "per solve",
    );
    for phase in Phase::ALL {
        let p = phase.name();
        push(
            &format!("solver.phase.{p}.det_s"),
            per_solve(&format!("solver.phase.{p}.det_s")),
            "det-s",
            "per solve",
        );
        push(
            &format!("solver.phase.{p}.count"),
            per_solve(&format!("solver.phase.{p}.count")),
            "count",
            "per solve",
        );
    }
    push(
        "cuts.rounds",
        per_solve("cuts.rounds"),
        "count",
        "per solve",
    );
    push("cuts.added", per_solve("cuts.added"), "count", "per solve");
    let roots = layers.sum("cuts.root_solves");
    push(
        "cuts.root_bound_before",
        ratio(layers.sum("cuts.root_bound_before"), roots),
        "objective",
        "mean over solves with a root LP",
    );
    push(
        "cuts.root_bound_after",
        ratio(layers.sum("cuts.root_bound_after"), roots),
        "objective",
        "mean over solves with a root LP",
    );
    push(
        "lp.refactors",
        per_solve("lp.refactors"),
        "count",
        "per solve",
    );
    push(
        "lp.refactor_det_s",
        per_solve("lp.refactor_det_s"),
        "det-s",
        "per solve",
    );
    push(
        "lp.refactors_per_node",
        ratio(layers.sum("lp.refactors"), layers.sum("solver.nodes")),
        "count",
        "refactors / nodes",
    );
    push("lp.updates", per_solve("lp.updates"), "count", "per solve");
    push(
        "lp.update_nnz",
        per_solve("lp.update_nnz"),
        "count",
        "per solve",
    );
    push(
        "lp.ftran_solves",
        per_solve("lp.ftran_solves"),
        "count",
        "per solve",
    );
    push(
        "lp.btran_solves",
        per_solve("lp.btran_solves"),
        "count",
        "per solve",
    );
    push(
        "lp.ftran_visited_per_solve",
        ratio(
            layers.sum("lp.ftran_visited"),
            layers.sum("lp.ftran_solves"),
        ),
        "count",
        "nonzeros visited per FTRAN",
    );
    push(
        "lp.btran_visited_per_solve",
        ratio(
            layers.sum("lp.btran_visited"),
            layers.sum("lp.btran_solves"),
        ),
        "count",
        "nonzeros visited per BTRAN",
    );
    push(
        "lp.hyper_share",
        ratio(
            layers.sum("lp.hyper_solves"),
            layers.sum("lp.ftran_solves") + layers.sum("lp.btran_solves"),
        ),
        "ratio",
        "hyper-sparse FTRAN+BTRAN / all",
    );
    push(
        "lp.growth_peak",
        layers.peak("lp.growth_peak"),
        "ratio",
        "max over solves",
    );
    for name in ["epochs", "steals", "heuristic_incumbents"] {
        push(
            &format!("parallel.{name}"),
            per_solve(&format!("parallel.{name}")),
            "count",
            "per solve",
        );
    }
    push("sim.profile_wall_s", per_op("sim.profile"), "s", "per op");
    push("sim.eval_wall_s", per_op("sim.eval"), "s", "per op");
    push("sim.events", per_op("sim.events"), "count", "per op");
    push("sim.spikes", per_op("sim.spikes"), "count", "per op");
    push(
        "mapping.validate_wall_s",
        per_op("mapping.validate"),
        "s",
        "per op",
    );
    out.extend(extra.iter().cloned());
    out
}

/// Adds each span name's total wall time to `layers` (per-op sums are
/// taken from there).
pub fn add_span_totals(layers: &mut Layers, tracer: &Tracer) {
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    for span in tracer.spans() {
        *totals.entry(span.name).or_insert(0.0) += span.duration();
    }
    for (name, total) in totals {
        layers.add(name, total);
    }
}

/// The ns/tick calibration table: wall per det-second of each solver-side
/// layer, flagging layers above twice the median.
#[must_use]
pub fn calibration_table(layers: &Layers) -> String {
    let mut rows: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();
    for &(layer, wall, det) in &layers.calibration {
        let row = rows.entry(layer).or_insert((0.0, 0.0, 0));
        row.0 += wall;
        row.1 += det;
        row.2 += 1;
    }
    let ratios: Vec<f64> = rows
        .values()
        .filter(|r| r.1 > 0.0)
        .map(|r| r.0 / r.1)
        .collect();
    let mid = median(&ratios);
    let mut out = format!("ns/tick calibration (median {mid:.2} ns/tick; * = above 2x median)\n");
    for (layer, (wall, det, n)) in rows {
        let per_tick = ratio(wall, det);
        let flag = if per_tick > 2.0 * mid { " *" } else { "" };
        let _ = writeln!(out, "  {layer:<14} {per_tick:>8.2} ns/tick  wall {wall:>9.4} s  det {det:>9.4} det-s  calls {n}{flag}");
    }
    out
}

/// Human-readable lines, one per metric.
#[must_use]
pub fn render(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<34} {:>16} {:<14} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.note
        );
    }
    out
}

/// The result line: the declared metrics of `names`, in order.
///
/// # Errors
///
/// Returns a message naming a declared metric the run did not measure or
/// measured as a non-finite number.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
    names: &[&str],
) -> Result<String, String> {
    let mut body = Vec::new();
    for &name in names {
        let m = metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}
