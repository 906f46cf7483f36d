//! Deterministic reference solver: conjugate gradient on the normal
//! equations (CGNR) with an active-set outer loop for the one-sided
//! penalty.
//!
//! Not part of the paper's comparison — it exists as the accuracy oracle:
//! Fig. 3's "optimal solution x*" histogram and Fig. 4's reference
//! solution are computed with this solver, and the test suite uses it to
//! check that the stochastic solvers land near the true optimum.
//!
//! With the violation set `V` frozen, the Eq. (6) objective is an
//! ordinary regularized least squares
//!
//! ```text
//! (AᵀA + w·A_VᵀA_V)·x = Aᵀb + w·A_Vᵀ·l_V
//! ```
//!
//! solved matrix-free by CG. The outer loop re-derives `V` from the new
//! iterate and repeats until the set stabilizes (it almost always does in
//! one or two rounds: at the least-squares optimum the model tracks PBA,
//! and the ε-tolerance keeps most rows feasible).

use crate::config::MgbaConfig;
use crate::problem::FitProblem;
use crate::solver::guard::SolveGuard;
use crate::solver::SolveResult;
use sparsela::vecops;
use std::time::Instant;

/// Maximum active-set refresh rounds.
const MAX_ACTIVE_SET_ROUNDS: usize = 8;
/// CG tolerance on the normal-equation residual (relative).
const CG_TOL: f64 = 1e-10;

/// Solves the penalized least squares to high accuracy from a zero start.
pub fn solve(problem: &FitProblem, config: &MgbaConfig) -> SolveResult {
    solve_from(problem, config, &vec![0.0; problem.num_gates()])
}

/// Solves the penalized least squares to high accuracy, starting CG from
/// `x0`. The objective is convex, so any finite start converges to the
/// same optimum; a good warm start only shortens the residual descent.
///
/// # Panics
///
/// Panics if `x0.len() != num_gates`.
pub fn solve_from(problem: &FitProblem, config: &MgbaConfig, x0: &[f64]) -> SolveResult {
    let _span = obs::span("cgnr");
    obs::telemetry::solve_begin("CGNR");
    let start = Instant::now();
    let m = problem.num_paths();
    let n = problem.num_gates();
    assert_eq!(x0.len(), n, "warm start: dimension mismatch");
    let mut x = x0.to_vec();
    if m == 0 || n == 0 {
        let objective = problem.objective(&x);
        obs::telemetry::solve_end(true, 0, 0, Some(objective));
        return SolveResult {
            objective,
            x,
            iterations: 0,
            elapsed: start.elapsed(),
            converged: true,
            rows_touched: 0,
            fault: None,
        };
    }
    let a = problem.matrix();
    // The operator and RHS are transpose products `Aᵀ·(row coeffs)`;
    // with the cached transpose each output entry is one fixed-order
    // column dot, so the parallel products are bit-identical for every
    // thread count.
    let at = problem.matrix_t();
    let par = problem.parallelism();
    let w = config.penalty;
    let b: Vec<f64> = problem
        .gba_slacks()
        .iter()
        .zip(problem.pba_slacks())
        .map(|(g, p)| g - p)
        .collect();
    let lower: Vec<f64> = b
        .iter()
        .zip(problem.pba_slacks())
        .map(|(bi, pi)| bi - config.epsilon * pi.abs())
        .collect();

    // Row-space scratch shared by the operator and the RHS assembly.
    let mut ym = vec![0.0; m];
    let apply = |active: &[bool], v: &[f64], ym: &mut [f64], out: &mut [f64]| {
        parallel::par_fill(par, ym, |i| {
            let ri = a.row_dot(i, v);
            if active[i] {
                ri * (1.0 + w)
            } else {
                ri
            }
        });
        parallel::par_fill(par, out, |j| at.row_dot(j, ym));
    };

    let mut iterations = 0usize;
    let mut rows_touched = 0u64;
    let mut active = vec![false; m];
    let mut converged = false;
    // check_window is never called here (CG needs no probe); the guard
    // provides the deadline and finiteness checks.
    let guard = SolveGuard::new(config, 0.0);
    let mut fault: Option<String> = None;

    'rounds: for _round in 0..MAX_ACTIVE_SET_ROUNDS {
        // RHS: Aᵀb + w·A_Vᵀ·l_V.
        parallel::par_fill(par, &mut ym, |i| {
            if active[i] {
                b[i] + w * lower[i]
            } else {
                b[i]
            }
        });
        let mut rhs = vec![0.0; n];
        parallel::par_fill(par, &mut rhs, |j| at.row_dot(j, &ym));
        // CG on (AᵀA + w A_VᵀA_V) x = rhs from the current x.
        let mut ax = vec![0.0; n];
        apply(&active, &x, &mut ym, &mut ax);
        let mut r: Vec<f64> = rhs.iter().zip(&ax).map(|(q, p)| q - p).collect();
        let mut p = r.clone();
        let rhs_norm = vecops::norm2(&rhs).max(1e-30);
        let mut rs_old = vecops::norm2_sq(&r);
        let max_cg = 4 * n + 100;
        let mut scratch = vec![0.0; n];
        for _ in 0..max_cg {
            match faultinject::fire("solver.iter") {
                Some(faultinject::Fault::Nan) => {
                    if let Some(x0) = x.first_mut() {
                        *x0 = f64::NAN;
                    }
                }
                Some(faultinject::Fault::Error) => {
                    fault = Some("failpoint `solver.iter`: injected error".into());
                    break 'rounds;
                }
                None => {}
            }
            if rs_old.sqrt() / rhs_norm < CG_TOL {
                break;
            }
            apply(&active, &p, &mut ym, &mut scratch);
            rows_touched += 2 * m as u64;
            let denom = vecops::dot(&p, &scratch);
            if denom <= 0.0 {
                break;
            }
            let alpha = rs_old / denom;
            vecops::axpy(alpha, &p, &mut x);
            vecops::axpy(-alpha, &scratch, &mut r);
            let rs_new = vecops::norm2_sq(&r);
            if let Err(e) = guard.check_value("CG residual", rs_new) {
                fault = Some(e);
                break 'rounds;
            }
            if let Err(e) = guard.check_deadline() {
                fault = Some(e);
                break 'rounds;
            }
            let beta = rs_new / rs_old;
            for j in 0..n {
                p[j] = r[j] + beta * p[j];
            }
            obs::telemetry::record_iteration(
                iterations as u64,
                None,
                rs_old.sqrt(),
                alpha,
                2 * m as u64,
            );
            rs_old = rs_new;
            iterations += 1;
        }
        // A poisoned iterate keeps the CG residuals finite (they track r,
        // not x), so check x itself once per round.
        if x.iter().any(|v| !v.is_finite()) {
            fault = Some("iterate became non-finite".into());
            break;
        }
        // Refresh the active set (row-parallel, exact booleans).
        let mut new_active = vec![false; m];
        parallel::par_fill(par, &mut new_active, |i| a.row_dot(i, &x) < lower[i]);
        let changed = new_active.iter().zip(&active).any(|(new, old)| new != old);
        rows_touched += m as u64;
        active = new_active;
        if !changed {
            converged = true;
            break;
        }
    }

    let objective = problem.objective(&x);
    obs::telemetry::solve_end(converged, iterations as u64, rows_touched, Some(objective));
    SolveResult {
        objective,
        x,
        iterations,
        elapsed: start.elapsed(),
        converged,
        rows_touched,
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::testutil::planted;

    #[test]
    fn cgnr_recovers_planted_solution() {
        let (p, x_true) = planted(800, 50, 8, 0.9, 41);
        let r = solve(&p, &MgbaConfig::default());
        assert!(r.converged);
        // The planted problem is consistent: residual ≈ 0, mse ≈ 0.
        assert!(p.mse(&r.x) < 1e-12, "mse {}", p.mse(&r.x));
        // On a consistent overdetermined system the solution is unique
        // wherever columns are fully covered.
        let model = p.model_slacks(&r.x);
        for (m, g) in model.iter().zip(p.pba_slacks()) {
            assert!((m - g).abs() < 1e-5);
        }
        let _ = x_true;
    }

    #[test]
    fn cgnr_beats_or_matches_stochastic_solvers() {
        use crate::solver::{gd, scg};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (p, _) = planted(600, 60, 8, 0.88, 42);
        let cfg = MgbaConfig::default();
        let x0 = vec![0.0; p.num_gates()];
        let r_ref = solve(&p, &cfg);
        let r_gd = gd::solve(&p, &cfg, &x0);
        let r_scg = scg::solve(&p, &cfg, &x0, &mut StdRng::seed_from_u64(1));
        assert!(r_ref.objective <= r_gd.objective + 1e-9);
        assert!(r_ref.objective <= r_scg.objective + 1e-9);
    }

    #[test]
    fn cgnr_solution_is_sparse_like_planted() {
        // Fig. 3's claim: the optimum inherits the planted sparsity.
        let (p, x_true) = planted(1500, 100, 8, 0.95, 43);
        let r = solve(&p, &MgbaConfig::default());
        let near_zero_true = x_true.iter().filter(|v| v.abs() < 0.01).count();
        let near_zero_got = r.x.iter().filter(|v| v.abs() < 0.01).count();
        // Within 15% of the planted sparsity level.
        let diff = (near_zero_true as f64 - near_zero_got as f64).abs();
        assert!(
            diff / x_true.len() as f64 <= 0.15,
            "sparsity mismatch: planted {near_zero_true}, got {near_zero_got}"
        );
    }

    #[test]
    fn cgnr_empty_problem() {
        let (p, _) = planted(10, 5, 2, 0.9, 44);
        let (sub, cols) = p.subproblem(&[]);
        assert!(cols.is_empty());
        let r = solve(&sub, &MgbaConfig::default());
        assert!(r.converged);
        assert!(r.x.is_empty());
    }
}
