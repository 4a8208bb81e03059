//! Property suite for the sparse LU basis factorisation
//! ([`croxmap_ilp::factor`]): FTRAN/BTRAN must agree with the explicit
//! dense-inverse reference ([`DenseInverse`]) on seeded random bases
//! (structural and slack columns mixed, with pivot updates layered on
//! top), Forrest–Tomlin updates must track the reference through long
//! (including near-singular and highly degenerate) pivot sequences, the
//! hyper-sparse and scanning solve kernels must agree exactly, singular
//! and degenerate bases must be rejected by both representations, and
//! the update-accumulation + forced-refactorisation cycle must be
//! bit-for-bit deterministic across runs.

use croxmap_ilp::{CscMatrix, DenseInverse, FactorOpts, LuFactors};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random sparse `m × n` structural matrix with small integer entries
/// (2–4 non-zeros per column), the same texture the croxmap formulations
/// produce.
fn random_csc(rng: &mut SmallRng, m: usize, n: usize) -> CscMatrix {
    let cols: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|_| {
            let nnz = rng.gen_range(2usize..=4.min(m));
            let mut rows: Vec<usize> = (0..m).collect();
            // Deterministic partial shuffle: pick `nnz` distinct rows.
            for i in 0..nnz {
                let j = rng.gen_range(i..m);
                rows.swap(i, j);
            }
            rows[..nnz]
                .iter()
                .map(|&r| {
                    let mut v = f64::from(rng.gen_range(-3i32..=3));
                    if v == 0.0 {
                        v = 1.0;
                    }
                    (r, v)
                })
                .collect()
        })
        .collect();
    CscMatrix::from_columns(m, &cols)
}

/// A random basis: one column per row, mixing structural columns and
/// slacks (`n..n+m`), without repetition.
fn random_basis(rng: &mut SmallRng, m: usize, n: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n + m).collect();
    let mut basis = Vec::with_capacity(m);
    for _ in 0..m {
        let k = rng.gen_range(0..pool.len());
        basis.push(pool.swap_remove(k));
    }
    basis
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}: entry {i}: {x} vs {y}"
        );
    }
}

#[test]
fn ftran_btran_match_dense_oracle_on_random_bases() {
    let mut factored = 0u32;
    let mut rejected = 0u32;
    for seed in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = rng.gen_range(3usize..=12);
        let n = rng.gen_range(m..=2 * m);
        let a = random_csc(&mut rng, m, n);
        let basis = random_basis(&mut rng, m, n);
        let mut lu = LuFactors::identity(m);
        let mut dense = DenseInverse::identity(m);
        let lu_ok = lu.factorize(&basis, &a, n);
        let dense_ok = dense.factorize(&basis, &a, n);
        // Both representations must agree on singularity (their pivot
        // tolerances are aligned; a disagreement would let one engine
        // accept a basis the other rejects).
        assert_eq!(lu_ok, dense_ok, "seed {seed}: singularity verdict");
        if !lu_ok {
            rejected += 1;
            continue;
        }
        factored += 1;
        for trial in 0..3 {
            let rhs: Vec<f64> = (0..m)
                .map(|_| f64::from(rng.gen_range(-5i32..=5)))
                .collect();
            let mut x1 = rhs.clone();
            let mut x2 = rhs.clone();
            lu.ftran(&mut x1);
            dense.ftran(&mut x2);
            assert_close(&x1, &x2, 1e-8, &format!("seed {seed} trial {trial} ftran"));
            let mut y1 = rhs.clone();
            let mut y2 = rhs;
            lu.btran(&mut y1);
            dense.btran(&mut y2);
            assert_close(&y1, &y2, 1e-8, &format!("seed {seed} trial {trial} btran"));
        }
    }
    // The random family must exercise both outcomes.
    assert!(factored > 100, "too few nonsingular bases: {factored}");
    assert!(rejected > 10, "too few singular bases: {rejected}");
}

#[test]
fn degenerate_bases_rejected() {
    let a = CscMatrix::from_columns(
        3,
        &[
            vec![(0, 1.0), (1, 1.0)],
            vec![(0, 2.0), (1, 2.0)], // scalar multiple of column 0
            vec![(2, 1.0)],
        ],
    );
    for basis in [
        vec![0, 1, 2], // linearly dependent structural pair
        vec![0, 0, 2], // duplicated column
        vec![3, 3, 5], // duplicated slack
        vec![0, 3, 3], // slack duplicated against a structural basis
    ] {
        let mut lu = LuFactors::identity(3);
        let mut dense = DenseInverse::identity(3);
        assert!(!lu.factorize(&basis, &a, 3), "lu accepted {basis:?}");
        assert!(!dense.factorize(&basis, &a, 3), "dense accepted {basis:?}");
    }
}

#[test]
fn updates_track_dense_rank_one_across_pivots() {
    let opts = FactorOpts::default();
    for seed in 300..360u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = rng.gen_range(4usize..=10);
        let n = rng.gen_range(m..=2 * m);
        let a = random_csc(&mut rng, m, n);
        // Start from the all-slack identity basis and pivot structural
        // columns in one at a time, keeping the LU (Forrest–Tomlin) and
        // the dense inverse (rank-one sweeps) in lockstep.
        let mut basis: Vec<usize> = (n..n + m).collect();
        let mut lu = LuFactors::identity(m);
        let mut dense = DenseInverse::identity(m);
        assert!(lu.factorize(&basis, &a, n));
        assert!(dense.factorize(&basis, &a, n));
        let mut pivots = 0u32;
        for q in 0..n {
            let r = rng.gen_range(0..m);
            // Transformed column w = B⁻¹ a_q via the LU path.
            let mut w = vec![0.0; m];
            a.axpy_col(&mut w, 1.0, q);
            let mut w_dense = w.clone();
            lu.ftran(&mut w);
            dense.ftran(&mut w_dense);
            assert_close(&w, &w_dense, 1e-8, &format!("seed {seed} col {q} w"));
            if w[r].abs() < 1e-6 || basis.contains(&q) {
                continue; // unusable pivot for this random row
            }
            basis[r] = q;
            if !lu.update(r, &w, &opts) {
                // A Forrest–Tomlin update the representation cannot
                // absorb refactorises from the updated basis — the
                // engine's recovery path.
                assert!(lu.factorize(&basis, &a, n), "seed {seed}: recovery");
            }
            dense.update(r, &w_dense);
            pivots += 1;
            let rhs: Vec<f64> = (0..m)
                .map(|_| f64::from(rng.gen_range(-4i32..=4)))
                .collect();
            let mut x1 = rhs.clone();
            let mut x2 = rhs.clone();
            lu.ftran(&mut x1);
            dense.ftran(&mut x2);
            assert_close(
                &x1,
                &x2,
                1e-6,
                &format!("seed {seed} ftran after pivot on {q}"),
            );
            let mut y1 = rhs.clone();
            let mut y2 = rhs;
            lu.btran(&mut y1);
            dense.btran(&mut y2);
            assert_close(
                &y1,
                &y2,
                1e-6,
                &format!("seed {seed} btran after pivot on {q}"),
            );
        }
        if pivots > 0 {
            // A forced refactorisation of the updated basis must agree
            // with the update-file representation it replaces.
            let rhs: Vec<f64> = (0..m).map(|i| (i as f64) - 1.5).collect();
            let mut before = rhs.clone();
            lu.ftran(&mut before);
            assert!(lu.factorize(&basis, &a, n), "seed {seed}: refactorise");
            assert_eq!(lu.update_count(), 0);
            let mut after = rhs;
            lu.ftran(&mut after);
            assert_close(&before, &after, 1e-6, &format!("seed {seed} refactor"));
        }
    }
}

/// Forrest–Tomlin updates and the dense reference driven in lockstep
/// through long pivot sequences that revisit the same rows over and over
/// (the highly degenerate pattern set-partitioning bases produce), on
/// matrices spiked with near-singular columns.
#[test]
fn forrest_tomlin_tracks_dense_on_degenerate_and_near_singular_sequences() {
    let mut total_pivots = 0u32;
    for seed in 500..540u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = rng.gen_range(6usize..=12);
        let n = 2 * m;
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
        for j in 0..n {
            let base = random_csc(&mut rng, m, 1);
            let (rows, vals) = base.col(0);
            let mut col: Vec<(usize, f64)> =
                rows.iter().copied().zip(vals.iter().copied()).collect();
            // Every fourth column is scaled close to the pivot tolerance:
            // factorisation survives, but pivots get ill-conditioned.
            if j % 4 == 3 {
                for e in &mut col {
                    e.1 *= 1e-7;
                }
            }
            cols.push(col);
        }
        let a = CscMatrix::from_columns(m, &cols);
        let mut basis: Vec<usize> = (n..n + m).collect();
        let mut ft = LuFactors::identity(m);
        let mut dense = DenseInverse::identity(m);
        assert!(ft.factorize(&basis, &a, n));
        assert!(dense.factorize(&basis, &a, n));
        let opts = FactorOpts::default();
        let mut pivots = 0u32;
        for step in 0..3 * m {
            // Degenerate churn: a small set of rows is pivoted repeatedly.
            let r = rng.gen_range(0..m.min(4));
            let q = rng.gen_range(0..n);
            if basis.contains(&q) {
                continue;
            }
            let mut w_ft = vec![0.0; m];
            a.axpy_col(&mut w_ft, 1.0, q);
            let mut w_dense = w_ft.clone();
            ft.ftran(&mut w_ft);
            dense.ftran(&mut w_dense);
            assert_close(&w_ft, &w_dense, 1e-5, &format!("seed {seed} step {step} w"));
            if w_ft[r].abs() < 1e-5 {
                continue;
            }
            basis[r] = q;
            if !ft.update(r, &w_ft, &opts) {
                assert!(ft.factorize(&basis, &a, n), "seed {seed}: ft recovery");
            }
            dense.update(r, &w_dense);
            pivots += 1;
            let rhs: Vec<f64> = (0..m)
                .map(|_| f64::from(rng.gen_range(-4i32..=4)))
                .collect();
            let mut x_ft = rhs.clone();
            let mut x_dense = rhs.clone();
            ft.ftran(&mut x_ft);
            dense.ftran(&mut x_dense);
            assert_close(
                &x_ft,
                &x_dense,
                1e-5,
                &format!("seed {seed} step {step} ft-vs-dense ftran"),
            );
            let mut y_ft = rhs.clone();
            let mut y_dense = rhs;
            ft.btran(&mut y_ft);
            dense.btran(&mut y_dense);
            assert_close(
                &y_ft,
                &y_dense,
                1e-5,
                &format!("seed {seed} step {step} ft-vs-dense btran"),
            );
        }
        total_pivots += pivots;
    }
    // The family as a whole must exercise a long pivot history.
    assert!(total_pivots > 120, "too few pivots overall: {total_pivots}");
}

/// System size for kernel-agreement seed `seed`: mostly small systems,
/// where a reach covers a large share of the slots, and every fourth one
/// large, where unit right-hand sides reach few slots while dense ones
/// still reach most slots.
fn kernel_size(rng: &mut SmallRng, seed: u64) -> usize {
    if seed % 4 == 3 {
        rng.gen_range(40usize..=120)
    } else {
        rng.gen_range(6usize..=14)
    }
}

/// The hyper-sparse (DFS reach) and scanning kernels execute the same
/// scatter arithmetic in the same pivot order, so forcing either via the
/// density cutover must not change a single result — across pivot
/// updates, sparse and dense right-hand sides, and refactorisations.
#[test]
fn hyper_sparse_and_scanning_kernels_agree_exactly() {
    let opts = FactorOpts::default();
    for seed in 700..740u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = kernel_size(&mut rng, seed);
        let n = rng.gen_range(m..=2 * m);
        let a = random_csc(&mut rng, m, n);
        let mut basis: Vec<usize> = (n..n + m).collect();
        let mut scan = LuFactors::identity(m);
        let mut hyper = LuFactors::identity(m);
        scan.set_hyper_density_cutoff(0.0); // always the scanning kernels
        hyper.set_hyper_density_cutoff(1.0); // always the reach kernels
        assert!(scan.factorize(&basis, &a, n));
        assert!(hyper.factorize(&basis, &a, n));
        for q in 0..n {
            let r = rng.gen_range(0..m);
            let mut w1 = vec![0.0; m];
            a.axpy_col(&mut w1, 1.0, q);
            let mut w2 = w1.clone();
            scan.ftran(&mut w1);
            hyper.ftran(&mut w2);
            assert_eq!(w1, w2, "seed {seed} col {q}: pivot column");
            if w1[r].abs() < 1e-6 || basis.contains(&q) {
                continue;
            }
            basis[r] = q;
            let ok1 = scan.update(r, &w1, &opts);
            let ok2 = hyper.update(r, &w2, &opts);
            assert_eq!(ok1, ok2, "seed {seed}: update verdict");
            if !ok1 {
                assert!(scan.factorize(&basis, &a, n));
                assert!(hyper.factorize(&basis, &a, n));
            }
            // Sparse probes (unit vectors: the hyper-sparse fast
            // path) and a dense probe (forced through the reach
            // kernel only on `hyper`).
            for probe in 0..m.min(3) {
                let mut x1 = vec![0.0; m];
                let mut x2 = vec![0.0; m];
                x1[probe] = 1.0;
                x2[probe] = 1.0;
                scan.ftran(&mut x1);
                hyper.ftran(&mut x2);
                assert_eq!(x1, x2, "seed {seed} q {q}: unit ftran {probe}");
                let mut y1 = vec![0.0; m];
                let mut y2 = vec![0.0; m];
                y1[probe] = 1.0;
                y2[probe] = 1.0;
                scan.btran(&mut y1);
                hyper.btran(&mut y2);
                assert_eq!(y1, y2, "seed {seed} q {q}: unit btran {probe}");
            }
            let dense_rhs: Vec<f64> = (0..m).map(|i| 1.0 + (i % 5) as f64).collect();
            let mut x1 = dense_rhs.clone();
            let mut x2 = dense_rhs.clone();
            scan.ftran(&mut x1);
            hyper.ftran(&mut x2);
            assert_eq!(x1, x2, "seed {seed} q {q}: dense ftran");
            let mut y1 = dense_rhs.clone();
            let mut y2 = dense_rhs;
            scan.btran(&mut y1);
            hyper.btran(&mut y2);
            assert_eq!(y1, y2, "seed {seed} q {q}: dense btran");
        }
    }
}

/// The pattern-threading entry points ([`LuFactors::ftran_sparse_tracked`]
/// and [`LuFactors::btran_unit_tracked`]) run the same hyper-sparse
/// kernels as the scanning path and merely capture the result pattern on
/// the side — so their numeric results must match the scanning oracle
/// **exactly**, the captured pattern must be a sorted duplicate-free
/// superset of the result's non-zeros, and feeding a captured pattern
/// into the *next* dependent solve (the reuse the engine performs every
/// iteration) must again match the oracle exactly, as must a pivot
/// update whose spike is seeded from the captured pattern.
#[test]
fn tracked_kernels_match_scan_kernels_and_chain_patterns() {
    let opts = FactorOpts::default();
    let mut tracked_solves = 0u32;
    for seed in 800..840u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = kernel_size(&mut rng, seed);
        let n = rng.gen_range(m..=2 * m);
        let a = random_csc(&mut rng, m, n);
        let mut basis: Vec<usize> = (n..n + m).collect();
        let mut scan = LuFactors::identity(m);
        let mut track = LuFactors::identity(m);
        scan.set_hyper_density_cutoff(0.0); // always the scanning kernels
        track.set_hyper_density_cutoff(1.0); // always the reach kernels
        assert!(scan.factorize(&basis, &a, n));
        assert!(track.factorize(&basis, &a, n));
        let mut result_pat = Vec::new();
        let mut next_pat = Vec::new();
        for q in 0..n {
            let r = rng.gen_range(0..m);
            // FTRAN of the raw column, tracked vs oracle.
            let mut x1 = vec![0.0; m];
            a.axpy_col(&mut x1, 1.0, q);
            let mut x2 = x1.clone();
            let (rows, _) = a.col(q);
            let hit = track.ftran_sparse_tracked(&mut x1, rows, &mut result_pat);
            scan.ftran(&mut x2);
            assert_eq!(x1, x2, "seed {seed} col {q}: tracked ftran");
            let col_pat = hit.then(|| result_pat.clone());
            if hit {
                tracked_solves += 1;
                assert!(
                    result_pat.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed} col {q}: pattern not sorted/deduped"
                );
                for (i, &v) in x1.iter().enumerate() {
                    assert!(
                        v == 0.0 || result_pat.contains(&i),
                        "seed {seed} col {q}: non-zero {i} outside pattern"
                    );
                }
                // Thread the captured pattern into a dependent solve,
                // exactly like the engine seeding its next FTRAN.
                let mut y1 = x1.clone();
                let mut y2 = x1.clone();
                let rehit = track.ftran_sparse_tracked(&mut y1, &result_pat, &mut next_pat);
                scan.ftran(&mut y2);
                assert_eq!(y1, y2, "seed {seed} col {q}: chained ftran");
                if rehit {
                    tracked_solves += 1;
                }
            }
            // Dense right-hand side through the tracked kernel.
            let mut d1: Vec<f64> = (0..m).map(|i| 1.0 + (i % 5) as f64).collect();
            let mut d2 = d1.clone();
            let all: Vec<usize> = (0..m).collect();
            assert!(track.ftran_sparse_tracked(&mut d1, &all, &mut result_pat));
            scan.ftran(&mut d2);
            assert_eq!(d1, d2, "seed {seed} col {q}: dense tracked ftran");
            assert!(result_pat.windows(2).all(|w| w[0] < w[1]));
            // Unit BTRAN, tracked vs oracle.
            let mut u1 = vec![0.0; m];
            let mut u2 = vec![0.0; m];
            u2[r] = 1.0;
            let bhit = track.btran_unit_tracked(r, &mut u1, &mut result_pat);
            scan.btran(&mut u2);
            assert_eq!(u1, u2, "seed {seed} row {r}: tracked btran");
            if bhit {
                tracked_solves += 1;
                assert!(
                    result_pat.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed} row {r}: btran pattern not sorted/deduped"
                );
                for (i, &v) in u1.iter().enumerate() {
                    assert!(
                        v == 0.0 || result_pat.contains(&i),
                        "seed {seed} row {r}: non-zero {i} outside btran pattern"
                    );
                }
            }
            // Layer a pivot update so the kernels run over a growing
            // eta/transform file, where the duplicate-pattern hazard
            // actually lives.
            if x1[r].abs() < 1e-6 || basis.contains(&q) {
                continue;
            }
            basis[r] = q;
            let ok1 = scan.update(r, &x2, &opts);
            let ok2 = match &col_pat {
                Some(pattern) => track.update_sparse(r, &x1, pattern, &opts),
                None => track.update(r, &x1, &opts),
            };
            assert_eq!(ok1, ok2, "seed {seed}: update verdict");
            if !ok1 {
                assert!(scan.factorize(&basis, &a, n));
                assert!(track.factorize(&basis, &a, n));
            }
        }
    }
    assert!(
        tracked_solves > 400,
        "too few tracked solves: {tracked_solves}"
    );
}

/// Appends `k` rows to `scan` and `track` in place through `grow`, each
/// over the basic structural columns of `basis` (every one with
/// probability `density`); the multipliers `μ = B⁻ᵀ n` come from one
/// BTRAN per row (by basis position). Returns the rows as
/// `(column, value)` lists.
fn grow_both(
    rng: &mut SmallRng,
    scan: &mut LuFactors,
    track: &mut LuFactors,
    basis: &[usize],
    n: usize,
    k: usize,
    density: f64,
) -> Vec<Vec<(usize, f64)>> {
    let m = basis.len();
    let mut new_rows = Vec::new();
    let mut borders = Vec::new();
    for _ in 0..k {
        let mut nrow = vec![0.0; m];
        let mut pat = Vec::new();
        let mut terms = Vec::new();
        for (r, &c) in basis.iter().enumerate() {
            if c < n && rng.gen_bool(density) {
                let v = f64::from(rng.gen_range(1i32..=3));
                nrow[r] = v;
                pat.push(r);
                terms.push((c, v));
            }
        }
        new_rows.push(terms);
        scan.btran_sparse(&mut nrow, &pat);
        borders.push(
            nrow.iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(j, &v)| (j, v))
                .collect::<Vec<_>>(),
        );
    }
    scan.grow(borders.clone());
    track.grow(borders);
    new_rows
}

/// Border-grown factorisations (cut rows appended in place): the
/// transposed border transforms write rows the BTRAN reach already
/// holds, so the tracked BTRAN pattern must be canonicalised — and the
/// tracked kernels must still match the scanning oracle exactly, on
/// unit and dense right-hand sides, and after further pivot updates.
#[test]
fn tracked_kernels_match_scan_kernels_on_border_grown_bases() {
    let opts = FactorOpts::default();
    let mut bordered_btrans = 0u32;
    for seed in 900..930u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = kernel_size(&mut rng, seed);
        let n = rng.gen_range(m..=2 * m);
        let a = random_csc(&mut rng, m, n);
        let mut scan = LuFactors::identity(m);
        let mut track = LuFactors::identity(m);
        scan.set_hyper_density_cutoff(0.0);
        track.set_hyper_density_cutoff(1.0);
        let Some(mut basis) = (0..50)
            .map(|_| random_basis(&mut rng, m, n))
            .find(|b| scan.factorize(b, &a, n))
        else {
            continue; // no non-singular draw
        };
        assert!(track.factorize(&basis, &a, n));
        let k = rng.gen_range(1usize..=3);
        let new_rows = grow_both(&mut rng, &mut scan, &mut track, &basis, n, k, 0.4);
        // The new rows' slacks are basic in the new rows; entering
        // columns carry their coefficients in the new rows too.
        let m2 = m + k;
        let a2 = a.append_rows(&new_rows);
        let mut result_pat = Vec::new();
        for step in 0..m2 {
            let r = rng.gen_range(0..m2);
            let mut u1 = vec![0.0; m2];
            let mut u2 = vec![0.0; m2];
            u2[r] = 1.0;
            if track.btran_unit_tracked(r, &mut u1, &mut result_pat) {
                bordered_btrans += 1;
                assert!(
                    result_pat.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed} row {r}: btran pattern not sorted/deduped"
                );
                for (i, &v) in u1.iter().enumerate() {
                    assert!(
                        v == 0.0 || result_pat.binary_search(&i).is_ok(),
                        "seed {seed} row {r}: non-zero {i} outside btran pattern"
                    );
                }
            }
            scan.btran(&mut u2);
            assert_eq!(u1, u2, "seed {seed} step {step}: tracked btran e{r}");
            let dense: Vec<f64> = (0..m2).map(|i| 1.0 + (i % 4) as f64).collect();
            let mut x1 = dense.clone();
            let mut x2 = dense;
            track.ftran(&mut x1);
            scan.ftran(&mut x2);
            assert_eq!(x1, x2, "seed {seed} step {step}: dense ftran");
            // Pivot a structural column into an original row, composing
            // Forrest–Tomlin updates against the border.
            let q = rng.gen_range(0..n);
            if basis.contains(&q) {
                continue;
            }
            let (rows, _) = a2.col(q);
            let mut w1 = vec![0.0; m2];
            a2.axpy_col(&mut w1, 1.0, q);
            let mut w2 = w1.clone();
            let mut wpat = Vec::new();
            let hit = track.ftran_sparse_tracked(&mut w1, rows, &mut wpat);
            scan.ftran(&mut w2);
            assert_eq!(w1, w2, "seed {seed} step {step}: entering column {q}");
            let r = rng.gen_range(0..m);
            if w1[r].abs() < 1e-6 {
                continue;
            }
            let ok1 = scan.update(r, &w2, &opts);
            let ok2 = if hit {
                track.update_sparse(r, &w1, &wpat, &opts)
            } else {
                track.update(r, &w1, &opts)
            };
            assert_eq!(ok1, ok2, "seed {seed}: update verdict");
            if !ok1 {
                break; // a refactorisation would drop the border
            }
            basis[r] = q;
        }
    }
    assert!(
        bordered_btrans > 200,
        "too few tracked bordered BTRANs: {bordered_btrans}"
    );
}

/// Asserts that `pattern` is sorted, duplicate-free and covers every
/// non-zero of `x`.
fn assert_tracked_pattern(pattern: &[usize], x: &[f64], what: &str) {
    assert!(
        pattern.windows(2).all(|w| w[0] < w[1]),
        "{what}: pattern not sorted/deduped"
    );
    for (i, &v) in x.iter().enumerate() {
        assert!(
            v == 0.0 || pattern.binary_search(&i).is_ok(),
            "{what}: non-zero {i} outside pattern"
        );
    }
}

/// Pivots up to `tries` random structural columns of `a` into rows of
/// `scan` and `track` where their pivot element is usable, the latter seeding each spike from its
/// tracked FTRAN pattern; both must agree on every pivot column and
/// update verdict. Returns the number of pivots taken.
#[allow(clippy::too_many_arguments)]
fn pivot_tracked(
    rng: &mut SmallRng,
    scan: &mut LuFactors,
    track: &mut LuFactors,
    basis: &mut [usize],
    a: &CscMatrix,
    n: usize,
    tries: usize,
    what: &str,
) -> u32 {
    let opts = FactorOpts::default();
    let m = basis.len();
    let mut pattern = Vec::new();
    let mut pivots = 0;
    for _ in 0..tries {
        let q = rng.gen_range(0..n);
        if basis.contains(&q) {
            continue;
        }
        let mut w1 = vec![0.0; m];
        a.axpy_col(&mut w1, 1.0, q);
        let mut w2 = w1.clone();
        assert!(track.ftran_sparse_tracked(&mut w1, a.col(q).0, &mut pattern));
        scan.ftran(&mut w2);
        assert_eq!(w1, w2, "{what}: entering column {q}");
        let rows: Vec<usize> = pattern
            .iter()
            .copied()
            .filter(|&i| w1[i].abs() >= 1e-6)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let r = rows[rng.gen_range(0..rows.len())];
        let ok1 = scan.update(r, &w2, &opts);
        let ok2 = track.update_sparse(r, &w1, &pattern, &opts);
        assert_eq!(ok1, ok2, "{what}: update verdict");
        if !ok1 {
            break;
        }
        basis[r] = q;
        pivots += 1;
    }
    pivots
}

/// Growing a basis across a 64-row boundary (62 → 66 rows through
/// `grow`) puts the appended rows, slots and pivotal positions into a new
/// word of the bit set that orders the kernels' patterns: tracked FTRAN
/// and BTRAN values and patterns must still match the scanning kernels
/// on every unit right-hand side, before and after pivot updates whose
/// spikes are seeded from the tracked patterns.
#[test]
fn tracked_kernels_match_scan_kernels_across_a_word_boundary() {
    let (m, k) = (62usize, 4usize);
    let m2 = m + k;
    let mut pivots = 0u32;
    for seed in 1000..1006u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(m..=2 * m);
        let a = random_csc(&mut rng, m, n);
        // Start from the slack basis, pivot structural columns in and
        // refactorise, so the grown factors carry real `L` and `U` fill.
        let mut basis: Vec<usize> = (n..n + m).collect();
        let mut scan = LuFactors::identity(m);
        let mut track = LuFactors::identity(m);
        scan.set_hyper_density_cutoff(0.0);
        track.set_hyper_density_cutoff(1.0);
        assert!(scan.factorize(&basis, &a, n));
        assert!(track.factorize(&basis, &a, n));
        let what = format!("seed {seed} before growth");
        pivots += pivot_tracked(
            &mut rng, &mut scan, &mut track, &mut basis, &a, n, 60, &what,
        );
        assert!(scan.factorize(&basis, &a, n));
        assert!(track.factorize(&basis, &a, n));
        let new_rows = grow_both(&mut rng, &mut scan, &mut track, &basis, n, k, 0.2);
        // The new rows' slacks (`n + row`) are basic in them.
        basis.extend((m..m2).map(|i| n + i));
        let a2 = a.append_rows(&new_rows);
        let mut pattern = Vec::new();
        for round in 0..3 {
            for r in 0..m2 {
                let what = format!("seed {seed} round {round} e{r}");
                let mut u1 = vec![0.0; m2];
                let mut u2 = vec![0.0; m2];
                u2[r] = 1.0;
                assert!(track.btran_unit_tracked(r, &mut u1, &mut pattern));
                scan.btran(&mut u2);
                assert_eq!(u1, u2, "{what}: tracked btran");
                assert_tracked_pattern(&pattern, &u1, &format!("{what}: btran"));
                let mut x1 = vec![0.0; m2];
                x1[r] = 1.0;
                let mut x2 = x1.clone();
                assert!(track.ftran_sparse_tracked(&mut x1, &[r], &mut pattern));
                scan.ftran(&mut x2);
                assert_eq!(x1, x2, "{what}: tracked ftran");
                assert_tracked_pattern(&pattern, &x1, &format!("{what}: ftran"));
            }
            let what = format!("seed {seed} round {round}");
            pivots += pivot_tracked(
                &mut rng, &mut scan, &mut track, &mut basis, &a2, n, 8, &what,
            );
        }
    }
    assert!(pivots >= 200, "too few pivots: {pivots}");
}

/// Runs one update-accumulation + forced-refactorisation cycle
/// (refactorising every third update, so the dynamic Markowitz ordering
/// decides pivots throughout) and returns every intermediate FTRAN image
/// of a fixed probe vector.
fn update_refactor_trace(seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = 8;
    let n = 12;
    let a = random_csc(&mut rng, m, n);
    let mut basis: Vec<usize> = (n..n + m).collect();
    let mut lu = LuFactors::identity(m);
    assert!(lu.factorize(&basis, &a, n));
    let probe: Vec<f64> = (0..m).map(|i| 1.0 + i as f64).collect();
    let mut trace = Vec::new();
    let opts = FactorOpts {
        refactor_interval: 3,
        eta_fill_factor: 8.0,
    };
    for q in 0..n {
        let r = rng.gen_range(0..m);
        let mut w = vec![0.0; m];
        a.axpy_col(&mut w, 1.0, q);
        lu.ftran(&mut w);
        if w[r].abs() < 1e-6 || basis.contains(&q) {
            continue;
        }
        basis[r] = q;
        if !lu.update(r, &w, &opts) || lu.needs_refactor(&opts) {
            assert!(lu.factorize(&basis, &a, n));
        }
        let mut beta = probe.clone();
        lu.ftran(&mut beta);
        trace.push(beta);
    }
    assert!(trace.len() >= 4, "seed {seed}: trace too short");
    trace
}

#[test]
fn update_accumulation_with_forced_refactorisation_is_bit_deterministic() {
    // The deterministic clock meters this machinery, so two identical
    // runs must produce bit-identical β vectors — not merely close ones —
    // through every pivot update and every forced refactorisation (the
    // dynamic ordering's tie-breaks are deterministic, not hash-order
    // accidents).
    for seed in [7u64, 42, 1234] {
        let t1 = update_refactor_trace(seed);
        let t2 = update_refactor_trace(seed);
        assert_eq!(t1.len(), t2.len());
        for (step, (b1, b2)) in t1.iter().zip(&t2).enumerate() {
            for (i, (x, y)) in b1.iter().zip(b2).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "seed {seed} step {step} entry {i}: {x} vs {y}"
                );
            }
        }
    }
}
