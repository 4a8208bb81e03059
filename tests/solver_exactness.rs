//! Property-based exactness check of the ILP engine itself: random small
//! 0/1 models are solved both by `croxmap-ilp` and by exhaustive
//! enumeration, and the optima must agree.

use croxmap::ilp::{Model, SolveStatus, Solver, SolverConfig, VarId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomIlp {
    n: usize,
    /// (coeffs per var, sense_le, rhs) rows; coeffs in -3..=3.
    rows: Vec<(Vec<i32>, bool, i32)>,
    objective: Vec<i32>,
}

fn arb_ilp() -> impl Strategy<Value = RandomIlp> {
    (2usize..=7)
        .prop_flat_map(|n| {
            let row = (
                proptest::collection::vec(-3i32..=3, n),
                any::<bool>(),
                -4i32..=6,
            );
            let rows = proptest::collection::vec(row, 1..=5);
            let objective = proptest::collection::vec(-5i32..=5, n);
            (Just(n), rows, objective)
        })
        .prop_map(|(n, rows, objective)| RandomIlp { n, rows, objective })
}

fn build(ilp: &RandomIlp) -> (Model, Vec<VarId>) {
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..ilp.n).map(|i| m.add_binary(format!("x{i}"))).collect();
    for (r, (coeffs, le, rhs)) in ilp.rows.iter().enumerate() {
        let expr = m.expr(vars.iter().zip(coeffs).map(|(&v, &c)| (v, f64::from(c))));
        let cmp = if *le {
            expr.leq(f64::from(*rhs))
        } else {
            expr.geq(f64::from(*rhs))
        };
        m.add_constraint(format!("r{r}"), cmp);
    }
    m.set_objective(
        m.expr(
            vars.iter()
                .zip(&ilp.objective)
                .map(|(&v, &c)| (v, f64::from(c))),
        ),
    );
    (m, vars)
}

/// Exhaustive optimum over all 2^n assignments, if any is feasible.
fn brute_force(ilp: &RandomIlp) -> Option<i64> {
    let mut best: Option<i64> = None;
    for code in 0u32..(1 << ilp.n) {
        let assignment: Vec<i64> = (0..ilp.n).map(|i| i64::from((code >> i) & 1)).collect();
        let feasible = ilp.rows.iter().all(|(coeffs, le, rhs)| {
            let lhs: i64 = coeffs
                .iter()
                .zip(&assignment)
                .map(|(&c, &x)| i64::from(c) * x)
                .sum();
            if *le {
                lhs <= i64::from(*rhs)
            } else {
                lhs >= i64::from(*rhs)
            }
        });
        if feasible {
            let obj: i64 = ilp
                .objective
                .iter()
                .zip(&assignment)
                .map(|(&c, &x)| i64::from(c) * x)
                .sum();
            best = Some(best.map_or(obj, |b: i64| b.min(obj)));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solver_matches_brute_force(ilp in arb_ilp()) {
        let (model, _) = build(&ilp);
        let truth = brute_force(&ilp);
        let result = Solver::new(SolverConfig::default().with_det_time_limit(10.0))
            .solve(&model);
        match truth {
            None => {
                prop_assert_eq!(result.status, SolveStatus::Infeasible);
                prop_assert!(result.best.is_none());
            }
            Some(opt) => {
                let best = result.best.expect("solver must find a solution");
                prop_assert_eq!(result.status, SolveStatus::Optimal);
                prop_assert!((best.objective() - opt as f64).abs() < 1e-6,
                    "solver {} vs brute force {}", best.objective(), opt);
                // And the reported solution must really be feasible.
                prop_assert!(model.is_feasible(best.values(), 1e-6));
            }
        }
    }

    #[test]
    fn warm_started_solver_matches_brute_force(ilp in arb_ilp()) {
        let (model, _) = build(&ilp);
        let Some(opt) = brute_force(&ilp) else { return Ok(()); };
        // Find any feasible point to warm start from.
        let warm = (0u32..(1 << ilp.n)).find_map(|code| {
            let v: Vec<f64> = (0..ilp.n).map(|i| f64::from((code >> i) & 1)).collect();
            model.is_feasible(&v, 1e-9).then_some(v)
        });
        let solver = Solver::new(SolverConfig::default().with_det_time_limit(10.0));
        let result = match warm {
            Some(w) => solver.solve_with_warm_start(&model, &w),
            None => solver.solve(&model),
        };
        let best = result.best.expect("feasible by construction");
        prop_assert!((best.objective() - opt as f64).abs() < 1e-6);
    }

    #[test]
    fn branch_priorities_do_not_change_the_optimum(ilp in arb_ilp()) {
        let (mut model, vars) = build(&ilp);
        let Some(opt) = brute_force(&ilp) else { return Ok(()); };
        // Arbitrary priority spread must not affect correctness.
        for (i, &v) in vars.iter().enumerate() {
            model.set_branch_priority(v, (i % 3) as i32);
        }
        let result = Solver::new(SolverConfig::default().with_det_time_limit(10.0))
            .solve(&model);
        let best = result.best.expect("feasible");
        prop_assert!((best.objective() - opt as f64).abs() < 1e-6);
    }
}

/// Tick-identity guard on the paper's area flow: `optimize_area` on the
/// `scaled_a(16)` network of `NetworkSpec` seed 0xA over the Table II
/// pool capped at two replicas, with 0.25 det-s. Every solver decision
/// is metered in deterministic ticks, so a change that only moves wall
/// time (buffer reuse, sort-free reach ordering) must reproduce these
/// values exactly; a change that moves them changes ticks and must say
/// so. At this budget the search still stops early — status `Feasible`,
/// no finite bound, the warm start as the only incumbent — so a fix of
/// that early stop re-pins all four.
#[test]
fn area_flow_det_time_and_results_are_pinned() {
    use croxmap::prelude::{
        generate, optimize_area, ArchitectureSpec, AreaModel, CrossbarPool, NetworkSpec,
        PipelineConfig,
    };
    let network = generate(&NetworkSpec {
        seed: 0xA,
        ..NetworkSpec::scaled_a(16)
    });
    let pool = CrossbarPool::for_network_capped(
        &ArchitectureSpec::table_ii_heterogeneous(),
        &AreaModel::memristor_count(),
        network.node_count(),
        2,
    );
    let run = optimize_area(&network, &pool, &PipelineConfig::with_budget(0.25));
    let objectives: Vec<u64> = run
        .incumbents
        .iter()
        .map(|t| t.objective.to_bits())
        .collect();
    assert_eq!(
        run.det_time.to_bits(),
        0.006_541_69_f64.to_bits(),
        "det_time {}",
        run.det_time
    );
    assert_eq!(run.status, SolveStatus::Feasible);
    assert_eq!(
        run.best_bound.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        "best_bound {}",
        run.best_bound
    );
    assert_eq!(
        objectives,
        [96.0f64.to_bits()],
        "incumbents {:?}",
        run.incumbents.len()
    );
}

/// Tick-identity guard on a solve that spends its budget: the area
/// `MappingIlp` of `scaled_a(16)` at `NetworkSpec` seed 0xB (instance 1 of
/// `perfbench`'s `area_het` at seed 0; Table II pool capped at two
/// replicas), warm-started from greedy first fit plus
/// `local_search_area(64)` and solved directly at 0.25 det-s. Unlike the
/// `optimize_area` pin above (and the same solve at seed 0xA, which stops
/// after 13 nodes), this search runs its tree to the budget, so the LP
/// kernels — reach ordering, sparse PRICE, the bound-flipping ratio test,
/// Forrest–Tomlin updates — run tens of thousands of times. A change that
/// only moves wall time must reproduce every value exactly.
#[test]
fn budget_spending_area_solve_is_tick_pinned() {
    use croxmap::prelude::{
        generate, greedy_first_fit, local_search_area, ArchitectureSpec, AreaModel, CrossbarPool,
        FormulationConfig, MappingIlp, MappingObjective, NetworkSpec,
    };
    let network = generate(&NetworkSpec {
        seed: 0xB,
        ..NetworkSpec::scaled_a(16)
    });
    let pool = CrossbarPool::for_network_capped(
        &ArchitectureSpec::table_ii_heterogeneous(),
        &AreaModel::memristor_count(),
        network.node_count(),
        2,
    );
    let greedy = greedy_first_fit(&network, &pool).expect("greedy maps the network");
    let seeded = local_search_area(&network, &pool, &greedy, 64);
    let ilp = MappingIlp::build(
        &network,
        &pool,
        &MappingObjective::Area,
        &FormulationConfig::new(),
    );
    let warm = ilp.warm_start(&network, &seeded);
    let result = Solver::new(SolverConfig::default().with_det_time_limit(0.25))
        .solve_with_warm_start(ilp.model(), &warm);
    let f = result.factor;
    assert_eq!(
        result.det_time.to_bits(),
        0.250_005_45_f64.to_bits(),
        "det_time {}",
        result.det_time
    );
    assert_eq!(result.nodes, 5942);
    assert_eq!(
        [f.refactors, f.updates, f.update_nnz],
        [3_456, 66_630, 1_500_644],
        "refactors, updates, update_nnz"
    );
    assert_eq!(
        [f.ftran_solves, f.ftran_visited, f.ftran_hyper],
        [72_606, 28_995_184, 72_486],
        "FTRAN solves, visited, hyper"
    );
    assert_eq!(
        [f.btran_solves, f.btran_visited, f.btran_hyper],
        [70_066, 10_447_032, 70_066],
        "BTRAN solves, visited, hyper"
    );
}
