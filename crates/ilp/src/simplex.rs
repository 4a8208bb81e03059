//! LP relaxations: configuration and result types, and the dense
//! two-phase tableau.
//!
//! Every LP relaxation runs through an [`LpSession`](crate::LpSession)
//! (see [`crate::backend`]), which drives one path:
//!
//! 1. **Sparse revised dual simplex** (the private `revised` module): the
//!    constraint matrix lives once in CSC form on the [`Model`]
//!    ([`Model::csc`]); the basis is held as a sparse LU factorisation
//!    with dynamic Markowitz ordering and Forrest–Tomlin updates
//!    ([`crate::factor`]), and columns are priced by sparse dot products.
//!    The dual simplex selects leaving rows by Devex reference-framework
//!    pricing (dual steepest edge and Dantzig selectable through
//!    [`PricingRule`], Bland guard on stalls) and runs a bound-flipping
//!    dual ratio test. It always starts *dual feasible* — from the
//!    all-slack basis on a cold start, or from a caller-supplied
//!    [`Basis`] snapshot on a warm start — so phase 1 is never run.
//!    Branch-and-bound exploits this heavily: a parent's optimal basis
//!    stays dual feasible for its children (only bounds change), and each
//!    child re-optimises in a few dual pivots.
//!
//! 2. **Dense two-phase primal tableau** ([`solve_relaxation_dense`]),
//!    the single fallback. It is the only path for a model with a column
//!    that is unbounded on its cost-improving side, because the dual
//!    simplex has no dual-feasible start there; it also catches singular
//!    warm bases and numerical trouble. Dantzig pricing with a switch to
//!    Bland's rule on stalls, artificials in phase 1, bound flips in the
//!    ratio test. Tests use it as the LP reference.
//!
//! Both paths meter deterministic [`work_ticks`](LpResult::work_ticks)
//! proportional to the floating-point work performed, so
//! [`DeterministicClock`](crate::DeterministicClock) budgets remain
//! reproducible no matter which path a solve takes.

use crate::basis::Basis;
use crate::expr::ConstraintSense;
use crate::factor::FactorStats;
use crate::model::Model;

/// Numerical tolerance for feasibility and pricing decisions.
pub const TOL: f64 = crate::tol::PRIMAL_FEAS;

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no solution within the bounds.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration limit was hit before convergence.
    IterLimit,
}

/// Result of solving an LP relaxation.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Solve outcome.
    pub status: LpStatus,
    /// Objective value (meaningful for [`LpStatus::Optimal`]).
    pub objective: f64,
    /// Values of the model's structural variables.
    pub values: Vec<f64>,
    /// Simplex iterations performed (both phases).
    pub iterations: u64,
    /// Deterministic work performed, in ticks.
    pub work_ticks: u64,
    /// `true` when the dense two-phase tableau produced this result
    /// because the revised engine declined the solve.
    pub dense_fallback: bool,
    /// Factorisation counters behind this solve (FTRAN/BTRAN visited
    /// non-zeros, kernel selections, update-file growth). All zeros on
    /// dense-tableau and trivial solves.
    pub factor: FactorStats,
}

/// Pricing rule for the dual simplex leaving-row selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Devex reference-framework weights: rows are scored by
    /// `violation² / weight`, approximating dual steepest edge at a
    /// fraction of the cost. Weights reset when they outgrow the
    /// reference framework. The default.
    #[default]
    Devex,
    /// Classic Dantzig pricing: the largest violation leaves. Cheapest
    /// per iteration, often more iterations overall.
    Dantzig,
    /// Exact dual steepest-edge (Forrest–Goldfarb): rows are scored by
    /// `violation² / ‖B⁻ᵀeᵢ‖²` with exact reference weights, maintained
    /// under basis changes by the standard recurrence (one extra FTRAN
    /// per pivot). The engine falls back to Devex-style unit weights for
    /// the rest of a solve if drift between the recurrence and the exact
    /// leaving-row norm is detected. Fewest iterations; highest
    /// per-iteration cost.
    SteepestEdge,
}

/// Configuration for the simplex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpConfig {
    /// Hard cap on simplex iterations across both phases.
    pub max_iterations: u64,
    /// Deterministic-tick budget for one solve: both engines report
    /// [`LpStatus::IterLimit`] once the solve's metered work reaches this
    /// many ticks (`u64::MAX`, the default, disables the cap). Unlike
    /// `max_iterations` this bounds actual *work*, so callers can slice a
    /// deterministic budget fairly across solves whose per-iteration cost
    /// varies wildly — the root cut loop caps each separation round's
    /// re-solve at a multiple of the root solve's ticks this way.
    pub work_limit: u64,
    /// Dual pricing rule; a Bland-style anti-cycling guard overrides
    /// any rule when the objective stalls.
    pub pricing: PricingRule,
    /// Pivot updates / hot basis reuses tolerated before a refactorisation
    /// (replaces the old hard-coded `REFACTOR_EVERY = 64`).
    pub refactor_interval: u32,
    /// Refactorise when the update file outgrows this multiple of the LU
    /// fill-in (see [`crate::factor::FactorOpts`]).
    pub eta_fill_factor: f64,
    /// Enables the bound-flipping (long-step) dual ratio test.
    pub bound_flips: bool,
    /// Anti-degeneracy cost perturbation on *cold* revised-simplex starts:
    /// a tiny deterministic, seed-derived amount is added to every
    /// structural cost before the dual simplex runs, breaking the massive
    /// reduced-cost ties of set-partitioning models. The perturbation is
    /// removed (and the basis re-verified dual feasible) before any result
    /// is reported, so objectives stay exact; if removal fails the engine
    /// silently retries the cold solve unperturbed.
    pub perturb: bool,
    /// Seed the perturbation amounts derive from (the solver forwards its
    /// own seed, keeping whole solves reproducible).
    pub perturb_seed: u64,
}

impl Default for LpConfig {
    fn default() -> Self {
        LpConfig {
            max_iterations: 200_000,
            work_limit: u64::MAX,
            pricing: PricingRule::Devex,
            refactor_interval: 96,
            eta_fill_factor: 3.0,
            bound_flips: true,
            perturb: true,
            perturb_seed: 0,
        }
    }
}

impl LpConfig {
    /// The factorisation policy carried by this configuration.
    #[must_use]
    pub fn factor_opts(&self) -> crate::factor::FactorOpts {
        crate::factor::FactorOpts {
            refactor_interval: self.refactor_interval,
            eta_fill_factor: self.eta_fill_factor,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    Basic,
    AtLower,
    AtUpper,
}

/// Dense bounded-variable simplex working state.
struct Tableau {
    m: usize,
    /// Total columns: structural + slack + artificial.
    n_cols: usize,
    /// Structural column count.
    n_struct: usize,
    /// First artificial column index.
    art_start: usize,
    /// Row-major `m × n_cols` working matrix `B⁻¹ A`.
    t: Vec<f64>,
    /// Current values of basic variables, per row.
    beta: Vec<f64>,
    /// Basis: column occupying each row.
    basis: Vec<usize>,
    /// Inverse of `basis`: row occupied by each column, `usize::MAX` when
    /// nonbasic. Kept in lockstep with `basis` so value lookups are O(1).
    row_of: Vec<usize>,
    /// Status per column.
    status: Vec<ColStatus>,
    /// Lower bound per column.
    lower: Vec<f64>,
    /// Upper bound per column (may be `f64::INFINITY`).
    upper: Vec<f64>,
    /// Reduced-cost row for the current phase's objective.
    zrow: Vec<f64>,
    /// Current phase cost per column.
    cost: Vec<f64>,
    iterations: u64,
    work_ticks: u64,
}

impl Tableau {
    /// Current value of column `j`.
    fn col_value(&self, j: usize) -> f64 {
        match self.status[j] {
            ColStatus::AtLower => self.lower[j],
            ColStatus::AtUpper => self.upper[j],
            ColStatus::Basic => self.beta[self.row_of[j]],
        }
    }

    /// Rebuilds the reduced-cost row `z[j] = c[j] − c_B' T[:,j]` for the
    /// current `cost` vector.
    fn rebuild_zrow(&mut self) {
        let mut z = self.cost.clone();
        for i in 0..self.m {
            let cb = self.cost[self.basis[i]];
            if cb != 0.0 {
                let row = &self.t[i * self.n_cols..(i + 1) * self.n_cols];
                for (zj, &tij) in z.iter_mut().zip(row.iter()) {
                    *zj -= cb * tij;
                }
            }
        }
        self.work_ticks += (self.m * self.n_cols) as u64;
        self.zrow = z;
    }

    /// Chooses an entering column, or `None` at optimality.
    ///
    /// `bland` forces lowest-index anti-cycling selection.
    fn choose_entering(&self, bland: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.n_cols {
            if self.status[j] == ColStatus::Basic {
                continue;
            }
            // Fixed columns can never move.
            if self.upper[j] - self.lower[j] <= TOL {
                continue;
            }
            let d = self.zrow[j];
            let (eligible, score) = match self.status[j] {
                ColStatus::AtLower => (d < -TOL, -d),
                ColStatus::AtUpper => (d > TOL, d),
                ColStatus::Basic => unreachable!(),
            };
            if !eligible {
                continue;
            }
            if bland {
                return Some((j, d));
            }
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((j, score));
            }
        }
        best.map(|(j, _)| (j, self.zrow[j]))
    }

    /// One primal iteration. Returns `Ok(true)` if progress was made,
    /// `Ok(false)` at optimality, `Err(())` on unboundedness.
    fn iterate(&mut self, bland: bool) -> Result<bool, ()> {
        let Some((q, dq)) = self.choose_entering(bland) else {
            return Ok(false);
        };
        // Direction: +1 if increasing from lower, −1 if decreasing from upper.
        let sigma = if self.status[q] == ColStatus::AtLower {
            1.0
        } else {
            -1.0
        };
        debug_assert!(sigma * dq < 0.0, "entering column must improve");

        // Ratio test: the step is limited by the entering variable's own
        // bound span (a bound flip) and by each basic variable hitting one
        // of its bounds (a pivot).
        let mut best_step = self.upper[q] - self.lower[q]; // may be +inf
        let mut pivot_row: Option<usize> = None;
        for i in 0..self.m {
            let delta = sigma * self.t[i * self.n_cols + q];
            if delta.abs() <= TOL {
                continue;
            }
            let b = self.basis[i];
            let step = if delta > 0.0 {
                // Basic value decreases towards its lower bound.
                (self.beta[i] - self.lower[b]).max(0.0) / delta
            } else {
                // Basic value increases towards its upper bound.
                if self.upper[b].is_infinite() {
                    continue;
                }
                (self.beta[i] - self.upper[b]).min(0.0) / delta
            };
            if step < best_step - crate::tol::ZERO || (pivot_row.is_none() && step <= best_step) {
                best_step = step;
                pivot_row = Some(i);
            }
        }
        if best_step.is_infinite() {
            return Err(()); // unbounded ray
        }
        // Prefer a pure bound flip when it is as tight as every pivot.
        let flip_span = self.upper[q] - self.lower[q];
        let (step, pivot_row) = if flip_span <= best_step {
            (flip_span, None)
        } else {
            (best_step.max(0.0), pivot_row)
        };

        // Apply movement to basic values.
        for i in 0..self.m {
            let delta = sigma * self.t[i * self.n_cols + q];
            if delta != 0.0 {
                self.beta[i] -= delta * step;
            }
        }
        self.iterations += 1;
        self.work_ticks += (2 * self.m * self.n_cols) as u64;

        match pivot_row {
            None => {
                // Pure bound flip.
                self.status[q] = if sigma > 0.0 {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                };
            }
            Some(r) => {
                let leaving = self.basis[r];
                // Leaving variable rests at the bound it ran into.
                let delta_r = sigma * self.t[r * self.n_cols + q];
                self.status[leaving] = if delta_r > 0.0 {
                    ColStatus::AtLower
                } else {
                    ColStatus::AtUpper
                };
                // Entering variable's new value.
                let enter_from = if sigma > 0.0 {
                    self.lower[q]
                } else {
                    self.upper[q]
                };
                let enter_val = enter_from + sigma * step;
                // Gauss–Jordan elimination on column q.
                let piv = self.t[r * self.n_cols + q];
                debug_assert!(piv.abs() > TOL * 1e-3, "pivot too small: {piv}");
                let inv = 1.0 / piv;
                for j in 0..self.n_cols {
                    self.t[r * self.n_cols + j] *= inv;
                }
                for i in 0..self.m {
                    if i == r {
                        continue;
                    }
                    let factor = self.t[i * self.n_cols + q];
                    if factor != 0.0 {
                        for j in 0..self.n_cols {
                            let v = self.t[r * self.n_cols + j];
                            self.t[i * self.n_cols + j] -= factor * v;
                        }
                    }
                }
                let zfac = self.zrow[q];
                if zfac != 0.0 {
                    for j in 0..self.n_cols {
                        self.zrow[j] -= zfac * self.t[r * self.n_cols + j];
                    }
                }
                self.row_of[leaving] = usize::MAX;
                self.basis[r] = q;
                self.row_of[q] = r;
                self.beta[r] = enter_val;
                self.status[q] = ColStatus::Basic;
            }
        }
        Ok(true)
    }

    /// Drives any artificial variable still basic (at value ~0) out of the
    /// basis, or pins redundant rows.
    fn expel_artificials(&mut self) {
        for r in 0..self.m {
            let b = self.basis[r];
            if b < self.art_start {
                continue;
            }
            // Find a non-artificial column with a usable pivot in this row.
            let mut replacement = None;
            for j in 0..self.art_start {
                if self.status[j] != ColStatus::Basic
                    && self.t[r * self.n_cols + j].abs() > crate::tol::FEAS
                {
                    replacement = Some(j);
                    break;
                }
            }
            match replacement {
                Some(q) => {
                    // Degenerate pivot: artificial is at 0, so the entering
                    // column keeps its current value and beta[r] becomes it.
                    let enter_val = self.col_value(q);
                    let piv = self.t[r * self.n_cols + q];
                    let inv = 1.0 / piv;
                    for j in 0..self.n_cols {
                        self.t[r * self.n_cols + j] *= inv;
                    }
                    for i in 0..self.m {
                        if i == r {
                            continue;
                        }
                        let factor = self.t[i * self.n_cols + q];
                        if factor != 0.0 {
                            for j in 0..self.n_cols {
                                let v = self.t[r * self.n_cols + j];
                                self.t[i * self.n_cols + j] -= factor * v;
                            }
                        }
                    }
                    self.status[self.basis[r]] = ColStatus::AtLower;
                    self.lower[b] = 0.0;
                    self.upper[b] = 0.0;
                    self.row_of[b] = usize::MAX;
                    self.basis[r] = q;
                    self.row_of[q] = r;
                    self.beta[r] = enter_val;
                    self.status[q] = ColStatus::Basic;
                    self.work_ticks += (self.m * self.n_cols) as u64;
                }
                None => {
                    // Redundant row: pin the artificial to zero so it can
                    // never move again.
                    self.lower[b] = 0.0;
                    self.upper[b] = 0.0;
                    self.beta[r] = 0.0;
                }
            }
        }
    }
}

/// Result of [`LpSession::solve`](crate::LpSession::solve): the LP
/// outcome plus, on optimal solves, the basis snapshot to warm-start
/// related solves from.
#[derive(Debug, Clone)]
pub struct WarmLpResult {
    /// The LP outcome.
    pub result: LpResult,
    /// Optimal basis for reuse (present only for [`LpStatus::Optimal`]
    /// solves handled by the revised engine).
    pub basis: Option<Basis>,
}

/// Dense two-phase primal tableau: solves the LP relaxation of `model`
/// under per-variable `bounds` (one `(lower, upper)` pair per variable;
/// integrality is ignored). The single fallback of every
/// [`LpSession`](crate::LpSession) solve, and the LP reference the tests
/// check sessions against.
///
/// # Panics
///
/// Panics if `bounds.len()` differs from the model's variable count.
#[must_use]
pub fn solve_relaxation_dense(model: &Model, bounds: &[(f64, f64)], config: &LpConfig) -> LpResult {
    let n = model.num_vars();
    assert_eq!(bounds.len(), n, "one bound pair per variable required");
    let m = model.num_constraints();

    // Quick bound-sanity: crossed overrides mean an infeasible node.
    for &(l, u) in bounds {
        if l > u + TOL {
            return LpResult {
                status: LpStatus::Infeasible,
                objective: f64::INFINITY,
                values: Vec::new(),
                iterations: 0,
                work_ticks: 1,
                dense_fallback: false,
                factor: FactorStats::default(),
            };
        }
    }
    if m == 0 {
        // Pure bound problem: minimise by setting each var to the cheap bound.
        let mut values = vec![0.0; n];
        for (j, &(l, u)) in bounds.iter().enumerate() {
            let c = model
                .objective()
                .iter()
                .find(|&&(v, _)| v.index() == j)
                .map_or(0.0, |&(_, c)| c);
            values[j] = if c >= 0.0 {
                l
            } else if u.is_finite() {
                u
            } else {
                return LpResult {
                    status: LpStatus::Unbounded,
                    objective: f64::NEG_INFINITY,
                    values: Vec::new(),
                    iterations: 0,
                    work_ticks: 1,
                    dense_fallback: false,
                    factor: FactorStats::default(),
                };
            };
        }
        let objective = model.objective_value(&values);
        return LpResult {
            status: LpStatus::Optimal,
            objective,
            values,
            iterations: 0,
            work_ticks: n as u64,
            dense_fallback: false,
            factor: FactorStats::default(),
        };
    }

    // Column layout: structural | slack (one per Le/Ge row) | artificial (one per row).
    let n_slack = model
        .constraints()
        .iter()
        .filter(|c| c.sense != ConstraintSense::Eq)
        .count();
    let art_start = n + n_slack;
    let n_cols = art_start + m;

    let mut lower = vec![0.0f64; n_cols];
    let mut upper = vec![f64::INFINITY; n_cols];
    for j in 0..n {
        lower[j] = bounds[j].0;
        upper[j] = bounds[j].1;
    }

    // Dense A (m × n_cols) with slacks and artificial placeholders.
    let mut a = vec![0.0f64; m * n_cols];
    let mut rhs = vec![0.0f64; m];
    let mut slack_idx = n;
    for (i, con) in model.constraints().iter().enumerate() {
        for &(v, c) in &con.terms {
            a[i * n_cols + v.index()] += c;
        }
        rhs[i] = con.rhs;
        match con.sense {
            ConstraintSense::Le => {
                a[i * n_cols + slack_idx] = 1.0;
                slack_idx += 1;
            }
            ConstraintSense::Ge => {
                a[i * n_cols + slack_idx] = -1.0;
                slack_idx += 1;
            }
            ConstraintSense::Eq => {}
        }
    }
    debug_assert_eq!(slack_idx, art_start);

    // Initial nonbasic point: every non-artificial column at a finite bound.
    let mut status = vec![ColStatus::AtLower; n_cols];
    for (j, st) in status.iter_mut().enumerate().take(art_start) {
        if lower[j].is_finite() {
            *st = ColStatus::AtLower;
        } else if upper[j].is_finite() {
            *st = ColStatus::AtUpper;
        } else {
            // Free variable: pin it at 0 by splitting bounds — croxmap
            // models never produce these, treat 0 as a pseudo lower bound.
            lower[j] = 0.0;
            *st = ColStatus::AtLower;
        }
    }

    // Residuals r = b − A x̄ determine artificial signs and values.
    let xbar: Vec<f64> = (0..art_start)
        .map(|j| match status[j] {
            ColStatus::AtLower => lower[j],
            ColStatus::AtUpper => upper[j],
            ColStatus::Basic => unreachable!("no basics yet"),
        })
        .collect();
    let mut beta = vec![0.0f64; m];
    let mut basis = vec![0usize; m];
    for i in 0..m {
        let mut r = rhs[i];
        for (j, &xj) in xbar.iter().enumerate() {
            let c = a[i * n_cols + j];
            if c != 0.0 {
                r -= c * xj;
            }
        }
        let sign = if r < 0.0 { -1.0 } else { 1.0 };
        let art = art_start + i;
        a[i * n_cols + art] = sign;
        // Scale the row so the artificial's tableau column is +e_i:
        // B = diag(sign) ⇒ B⁻¹ row i multiplies by sign.
        if sign < 0.0 {
            for j in 0..n_cols {
                a[i * n_cols + j] = -a[i * n_cols + j];
            }
        }
        beta[i] = r.abs();
        basis[i] = art;
        status[art] = ColStatus::Basic;
    }

    let mut row_of = vec![usize::MAX; n_cols];
    for (i, &b) in basis.iter().enumerate() {
        row_of[b] = i;
    }
    let mut tab = Tableau {
        m,
        n_cols,
        n_struct: n,
        art_start,
        t: a,
        beta,
        basis,
        row_of,
        status,
        lower,
        upper,
        zrow: vec![0.0; n_cols],
        cost: vec![0.0; n_cols],
        iterations: 0,
        work_ticks: (m * n_cols) as u64,
    };

    // ---- Phase 1: minimise sum of artificials ----
    for j in art_start..n_cols {
        tab.cost[j] = 1.0;
    }
    tab.rebuild_zrow();
    let mut iters_left = config.max_iterations;
    let mut stall = 0u32;
    let mut last_obj = f64::INFINITY;
    loop {
        let phase1_obj: f64 = tab
            .beta
            .iter()
            .zip(tab.basis.iter())
            .fold(
                0.0,
                |acc, (&b, &col)| {
                    if col >= art_start {
                        acc + b
                    } else {
                        acc
                    }
                },
            );
        if phase1_obj <= TOL * (1.0 + m as f64) {
            break;
        }
        if iters_left == 0 || tab.work_ticks >= config.work_limit {
            return finish(model, &tab, LpStatus::IterLimit);
        }
        if phase1_obj < last_obj - TOL {
            stall = 0;
            last_obj = phase1_obj;
        } else {
            stall += 1;
        }
        let bland = stall > 64;
        match tab.iterate(bland) {
            Ok(true) => iters_left -= 1,
            Ok(false) => break, // phase-1 optimal
            Err(()) => break,   // cannot happen: phase-1 objective bounded below
        }
    }
    let phase1_obj: f64 = tab
        .beta
        .iter()
        .zip(tab.basis.iter())
        .fold(
            0.0,
            |acc, (&b, &col)| if col >= art_start { acc + b } else { acc },
        );
    if phase1_obj > crate::tol::FEAS {
        return finish(model, &tab, LpStatus::Infeasible);
    }
    tab.expel_artificials();
    // Freeze all artificials at zero.
    for j in tab.art_start..tab.n_cols {
        if tab.status[j] != ColStatus::Basic {
            tab.lower[j] = 0.0;
            tab.upper[j] = 0.0;
            tab.status[j] = ColStatus::AtLower;
        }
    }

    // ---- Phase 2: minimise the real objective ----
    tab.cost = vec![0.0; tab.n_cols];
    for &(v, c) in model.objective() {
        tab.cost[v.index()] = c;
    }
    tab.rebuild_zrow();
    stall = 0;
    last_obj = f64::INFINITY;
    loop {
        if iters_left == 0 || tab.work_ticks >= config.work_limit {
            return finish(model, &tab, LpStatus::IterLimit);
        }
        let obj: f64 = current_objective(model, &tab);
        if obj < last_obj - TOL {
            stall = 0;
            last_obj = obj;
        } else {
            stall += 1;
        }
        let bland = stall > 64;
        match tab.iterate(bland) {
            Ok(true) => iters_left -= 1,
            Ok(false) => return finish(model, &tab, LpStatus::Optimal),
            Err(()) => return finish(model, &tab, LpStatus::Unbounded),
        }
    }
}

/// Objective of the current point under the tableau's phase costs,
/// evaluated in O(m + n) without materialising the solution vector.
fn current_objective(_model: &Model, tab: &Tableau) -> f64 {
    let mut obj = 0.0;
    for i in 0..tab.m {
        obj += tab.cost[tab.basis[i]] * tab.beta[i];
    }
    for j in 0..tab.n_cols {
        match tab.status[j] {
            ColStatus::Basic => {}
            ColStatus::AtLower => obj += tab.cost[j] * tab.lower[j],
            ColStatus::AtUpper => obj += tab.cost[j] * tab.upper[j],
        }
    }
    obj
}

fn extract_values(tab: &Tableau) -> Vec<f64> {
    let mut values = vec![0.0f64; tab.n_struct];
    for (j, val) in values.iter_mut().enumerate() {
        *val = match tab.status[j] {
            ColStatus::AtLower => tab.lower[j],
            ColStatus::AtUpper => tab.upper[j],
            ColStatus::Basic => tab.beta[tab.row_of[j]],
        };
    }
    values
}

fn finish(model: &Model, tab: &Tableau, status: LpStatus) -> LpResult {
    let values = extract_values(tab);
    let objective = match status {
        LpStatus::Optimal | LpStatus::IterLimit => model.objective_value(&values),
        LpStatus::Infeasible => f64::INFINITY,
        LpStatus::Unbounded => f64::NEG_INFINITY,
    };
    LpResult {
        status,
        objective,
        values,
        iterations: tab.iterations,
        work_ticks: tab.work_ticks,
        dense_fallback: true,
        factor: FactorStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpSession, Model};

    fn cfg() -> LpConfig {
        LpConfig::default()
    }

    /// One-shot session solve under explicit bounds.
    fn solve_bounded(model: &Model, bounds: &[(f64, f64)], config: &LpConfig) -> LpResult {
        LpSession::open(model, *config).solve(bounds, None).result
    }

    /// One-shot session solve under the model's own bounds.
    fn solve_own_bounds(model: &Model, config: &LpConfig) -> LpResult {
        let bounds: Vec<(f64, f64)> = model
            .variables()
            .iter()
            .map(|v| (v.lower, v.upper))
            .collect();
        solve_bounded(model, &bounds, config)
    }

    #[test]
    fn simple_two_var_lp() {
        // max x + y s.t. x + 2y <= 4, 3x + y <= 6, 0<=x,y  → min -(x+y)
        // Optimum at intersection: x = 8/5, y = 6/5, obj = -14/5.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", m.expr([(x, 1.0), (y, 2.0)]).leq(4.0));
        m.add_constraint("c2", m.expr([(x, 3.0), (y, 1.0)]).leq(6.0));
        m.set_objective(m.expr([(x, -1.0), (y, -1.0)]));
        let r = solve_own_bounds(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(
            (r.objective + 14.0 / 5.0).abs() < 1e-6,
            "obj {}",
            r.objective
        );
        assert!((r.values[0] - 1.6).abs() < 1e-6);
        assert!((r.values[1] - 1.2).abs() < 1e-6);
    }

    #[test]
    fn equality_constraint() {
        // min x + y s.t. x + y = 3, x <= 2, y <= 2 → obj 3.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 2.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.add_constraint("eq", m.expr([(x, 1.0), (y, 1.0)]).eq(3.0));
        m.set_objective(m.expr([(x, 1.0), (y, 1.0)]));
        let r = solve_own_bounds(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 3.0).abs() < 1e-6);
        assert!((r.values[0] + r.values[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", m.expr([(x, 1.0)]).geq(2.0));
        m.set_objective(m.expr([(x, 1.0)]));
        let r = solve_own_bounds(&m, &cfg());
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c", m.expr([(x, 1.0), (y, -1.0)]).leq(1.0));
        m.set_objective(m.expr([(y, -1.0)]));
        let r = solve_own_bounds(&m, &cfg());
        assert_eq!(r.status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_respected_via_bound_flips() {
        // min -x - 2y with x,y in [0,1] and x + y <= 1.5 → y=1, x=0.5.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_constraint("c", m.expr([(x, 1.0), (y, 1.0)]).leq(1.5));
        m.set_objective(m.expr([(x, -1.0), (y, -2.0)]));
        let r = solve_own_bounds(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 2.5).abs() < 1e-6, "obj {}", r.objective);
        assert!((r.values[1] - 1.0).abs() < 1e-6);
        assert!((r.values[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn bound_overrides_fix_variables() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("c", m.expr([(x, 1.0), (y, 1.0)]).geq(1.0));
        m.set_objective(m.expr([(x, 1.0), (y, 3.0)]));
        // Fix x to 0: forced y = 1.
        let r = solve_bounded(&m, &[(0.0, 0.0), (0.0, 1.0)], &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[1] - 1.0).abs() < 1e-6);
        assert!((r.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn crossed_override_is_infeasible() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.set_objective(m.expr([(x, 1.0)]));
        m.add_constraint("c", m.expr([(x, 1.0)]).leq(1.0));
        let r = solve_bounded(&m, &[(1.0, 0.0)], &cfg());
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn no_constraints_bound_problem() {
        let mut m = Model::new();
        let x = m.add_continuous("x", -1.0, 4.0);
        let y = m.add_continuous("y", 0.0, 2.0);
        m.set_objective(m.expr([(x, 1.0), (y, -1.0)]));
        let r = solve_own_bounds(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert_eq!(r.values, vec![-1.0, 2.0]);
        assert_eq!(r.objective, -3.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: multiple constraints through the optimum.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", m.expr([(x, 1.0), (y, 1.0)]).leq(1.0));
        m.add_constraint("c2", m.expr([(x, 1.0)]).leq(1.0));
        m.add_constraint("c3", m.expr([(y, 1.0)]).leq(1.0));
        m.add_constraint("c4", m.expr([(x, 2.0), (y, 2.0)]).leq(2.0));
        m.set_objective(m.expr([(x, -1.0), (y, -1.0)]));
        let r = solve_own_bounds(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equalities_handled() {
        // x + y = 2 stated twice: phase 1 must expel or pin artificials.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 5.0);
        let y = m.add_continuous("y", 0.0, 5.0);
        m.add_constraint("e1", m.expr([(x, 1.0), (y, 1.0)]).eq(2.0));
        m.add_constraint("e2", m.expr([(x, 1.0), (y, 1.0)]).eq(2.0));
        m.set_objective(m.expr([(x, 1.0)]));
        let r = solve_own_bounds(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(r.objective.abs() < 1e-6);
        assert!((r.values[0] + r.values[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn covering_lp_fractional_bound() {
        // Set cover LP relaxation: 3 elements, pairs — classic 1/2 solution.
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint("e1", m.expr([(a, 1.0), (b, 1.0)]).geq(1.0));
        m.add_constraint("e2", m.expr([(b, 1.0), (c, 1.0)]).geq(1.0));
        m.add_constraint("e3", m.expr([(a, 1.0), (c, 1.0)]).geq(1.0));
        m.set_objective(m.expr([(a, 1.0), (b, 1.0), (c, 1.0)]));
        let r = solve_own_bounds(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 1.5).abs() < 1e-6, "obj {}", r.objective);
    }

    #[test]
    fn negative_rhs_rows() {
        // −x ≤ −2 with x ∈ [0, 5]: optimum of min x is 2.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 5.0);
        m.add_constraint("c", m.expr([(x, -1.0)]).leq(-2.0));
        m.set_objective(m.expr([(x, 1.0)]));
        let r = solve_own_bounds(&m, &cfg());
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.values[0] - 2.0).abs() < 1e-6);
    }
}
