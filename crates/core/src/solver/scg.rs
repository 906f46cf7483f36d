//! Stochastic conjugate gradient — the paper's Algorithm 2.
//!
//! Each iteration:
//!
//! 1. draws `k''` rows with probability proportional to their squared
//!    Euclidean norm (the randomized-Kaczmarz distribution, Eq. (11));
//! 2. accumulates the penalized gradient over just those rows;
//! 3. normalizes the gradient (line 6);
//! 4. combines it with the previous direction via the Polak–Ribière
//!    parameter (line 7, with the standard PR⁺ non-negativity clamp for
//!    stochastic stability);
//! 5. steps with the dynamic size `α = s / ‖d‖` (line 9), decayed
//!    hyperbolically over iterations so the stochastic iterates settle.

use crate::config::MgbaConfig;
use crate::problem::FitProblem;
use crate::solver::guard::SolveGuard;
use crate::solver::{ObjectiveProbe, SolveResult};
use rand::rngs::StdRng;
use sparsela::sampling::NormSampler;
use sparsela::vecops;
use std::time::Instant;

/// Runs Algorithm 2 from `x0`.
pub fn solve(
    problem: &FitProblem,
    config: &MgbaConfig,
    x0: &[f64],
    rng: &mut StdRng,
) -> SolveResult {
    solve_with_offset(problem, config, x0, 0, rng)
}

/// Runs Algorithm 2 with the step-decay schedule advanced by
/// `step_offset` iterations. Used by Algorithm 1's doubling rounds so a
/// warm-started round *refines* the previous solution with proportionally
/// smaller steps instead of kicking it around at full step size.
pub fn solve_with_offset(
    problem: &FitProblem,
    config: &MgbaConfig,
    x0: &[f64],
    step_offset: usize,
    rng: &mut StdRng,
) -> SolveResult {
    run(problem, config, x0, step_offset, rng, None).0
}

/// Runs Algorithm 2 on one of Algorithm 1's rounds: `problem` is the
/// round's compacted sub-problem, `cols` the full-problem column of each
/// of its columns, and `x` the full iterate. The round solves over the
/// gathered iterate and its result is scattered back to full length,
/// bit for bit what a solve over all columns returns.
pub(crate) fn solve_round(
    problem: &FitProblem,
    cols: &[usize],
    config: &MgbaConfig,
    x: &[f64],
    step_offset: usize,
    rng: &mut StdRng,
) -> SolveResult {
    let x0: Vec<f64> = cols.iter().map(|&j| x[j]).collect();
    let (mut result, stepped) = run(
        problem,
        config,
        &x0,
        step_offset,
        rng,
        Some(Round { x, cols }),
    );
    let mut full = x.to_vec();
    // A step over all columns adds `α·0.0` to every column outside the
    // round, which turns a `−0.0` there into `+0.0`.
    if stepped {
        for v in &mut full {
            *v += 0.0;
        }
    }
    for (&j, &v) in cols.iter().zip(&result.x) {
        full[j] = v;
    }
    result.x = full;
    result
}

/// A round's place in the full problem (see [`solve_round`]): the full
/// iterate at the start of the round and each local column's
/// full-problem column.
struct Round<'a> {
    x: &'a [f64],
    cols: &'a [usize],
}

/// Columns a gradient may be nonzero in, one bit per column.
struct Support(Vec<u64>);

impl Support {
    fn insert(&mut self, j: usize) {
        self.0[j / 64] |= 1 << (j % 64);
    }

    /// Calls `f` on each marked column, ascending.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Zeroes `g` on the marked columns and clears the marks.
    fn clear(&mut self, g: &mut [f64]) {
        self.for_each(|j| g[j] = 0.0);
        self.0.fill(0);
    }
}

/// `‖x‖²` of the full iterate (see [`solve_round`]), summed in column
/// order like [`vecops::norm2_sq`].
fn iterate_norm_sq(x: &[f64], round: Option<&Round<'_>>) -> f64 {
    let Some(round) = round else {
        return vecops::norm2_sq(x);
    };
    let mut local = round.cols.iter().zip(x).peekable();
    round
        .x
        .iter()
        .enumerate()
        .map(|(j, &v)| local.next_if(|(&c, _)| c == j).map_or(v, |(_, &xl)| xl))
        .map(|v| v * v)
        .sum()
}

/// Algorithm 2, returning also whether any step was taken. With a
/// `round`, the window guard judges the full iterate, the round's
/// columns read from the solve and the rest from `round.x`, as a solve
/// over all columns would.
///
/// Each iteration's gradient is nonzero only in the columns its drawn
/// rows touch, so `‖g‖`, the normalisation and the Polak–Ribière
/// numerator run over that support in ascending column order. Every term they skip is an exact zero (`g_j = +0.0`, and
/// `g_prev` is finite: a non-finite gradient trips the guard before it
/// is kept), and a sum that starts at `+0.0` never becomes `−0.0`, so
/// each sum is bit-identical to the one over all columns.
fn run(
    problem: &FitProblem,
    config: &MgbaConfig,
    x0: &[f64],
    step_offset: usize,
    rng: &mut StdRng,
    round: Option<Round<'_>>,
) -> (SolveResult, bool) {
    let _span = obs::span("scg");
    obs::telemetry::solve_begin("SCG + w/o RS");
    let start = Instant::now();
    let m = problem.num_paths();
    let n = problem.num_gates();
    let mut x = x0.to_vec();
    let done_at_start = |x: Vec<f64>| {
        let objective = problem.objective(&x);
        obs::telemetry::solve_end(true, 0, 0, Some(objective));
        let result = SolveResult {
            objective,
            x,
            iterations: 0,
            elapsed: start.elapsed(),
            converged: true,
            rows_touched: 0,
            fault: None,
        };
        (result, false)
    };
    if m == 0 || n == 0 {
        return done_at_start(x);
    }

    // Line 3 of Algorithm 2: row probabilities ∝ ‖a_j‖² (computed once —
    // the matrix is fixed during the solve).
    let norms = problem.matrix().row_norms_sq();
    let Some(sampler) = NormSampler::new(&norms) else {
        // All-zero matrix (paths with no gates): nothing to fit.
        return done_at_start(x);
    };
    let k = ((m as f64 * config.row_fraction).ceil() as usize).clamp(1, m);

    let probe = ObjectiveProbe::new(problem, 512);
    let mut best_obj = probe.estimate(problem, &x);
    // Absolute floor: when the probe objective is already negligible
    // relative to the problem scale, the system is solved.
    let floor = 1e-12 * vecops::norm2_sq(problem.pba_slacks()).max(1e-30);
    if best_obj <= floor {
        return done_at_start(x);
    }
    let mut guard = SolveGuard::new(config, best_obj);
    let mut fault: Option<String> = None;
    // `g` and `g_prev` are zero outside their supports; a step swaps the
    // pair instead of copying `g` into `g_prev`.
    let words = n.div_ceil(64);
    let mut g = vec![0.0; n];
    let mut support = Support(vec![0; words]);
    let mut g_prev: Vec<f64> = vec![0.0; n];
    let mut prev_support = Support(vec![0; words]);
    let mut d: Vec<f64> = vec![0.0; n];
    let mut have_prev = false;
    let mut stepped = false;
    let mut converged = false;
    let mut stalled = 0usize;
    let mut iterations = 0;
    let mut rows_touched = 0u64;

    while iterations < config.max_iterations {
        // Free when no deadline is configured (a single Option match).
        if let Err(e) = guard.check_deadline() {
            fault = Some(e);
            break;
        }
        match faultinject::fire("solver.iter") {
            Some(faultinject::Fault::Nan) => {
                // Poison the iterate the way a corrupt upstream derate
                // would: the guard must catch it at the next window.
                if let Some(x0) = x.first_mut() {
                    *x0 = f64::NAN;
                }
            }
            Some(faultinject::Fault::Error) => {
                fault = Some("failpoint `solver.iter`: injected error".into());
                break;
            }
            None => {}
        }
        // Lines 4–5: sample k'' rows, accumulate their gradient.
        support.clear(&mut g);
        for _ in 0..k {
            let row = sampler.draw(rng);
            for &c in problem.matrix().row(row).0 {
                support.insert(c as usize);
            }
            problem.accumulate_row_gradient(row, &x, &mut g);
        }
        rows_touched += k as u64;
        // Line 6: normalize. A zero *sampled* gradient is not evidence of
        // optimality (the drawn rows may simply have zero residual) —
        // skip the step; the windowed objective check handles genuine
        // convergence.
        let mut gnorm_sq = 0.0;
        support.for_each(|j| gnorm_sq += g[j] * g[j]);
        let gnorm = gnorm_sq.sqrt();
        if let Err(e) = guard.check_value("gradient norm", gnorm) {
            fault = Some(e);
            break;
        }
        if gnorm == 0.0 {
            iterations += 1;
            have_prev = false;
            let mut window_obj = None;
            if iterations.is_multiple_of(config.check_window) {
                let obj = probe.estimate(problem, &x);
                window_obj = Some(obj);
                if let Err(e) = guard.check_window(obj, iterate_norm_sq(&x, round.as_ref())) {
                    fault = Some(e);
                } else if obj <= floor || obj >= best_obj * (1.0 - config.inner_tolerance) {
                    converged = true;
                } else {
                    best_obj = obj;
                }
            }
            obs::telemetry::record_iteration(
                (iterations - 1) as u64,
                window_obj,
                0.0,
                0.0,
                k as u64,
            );
            if converged || fault.is_some() {
                break;
            }
            continue;
        }
        // Line 7: Polak–Ribière (g_prev is unit-norm, so the denominator
        // ‖g_prev‖² is 1), summed in the normalising pass; PR⁺ clamp
        // keeps stochastic directions stable.
        let inv = 1.0 / gnorm;
        let mut num = 0.0;
        support.for_each(|j| {
            g[j] *= inv;
            num += g[j] * (g[j] - g_prev[j]);
        });
        let beta = if have_prev { num.max(0.0) } else { 0.0 };
        // Line 8: conjugate direction, and its squared norm in the same
        // pass.
        let mut d_norm_sq = 0.0;
        for (dj, &gj) in d.iter_mut().zip(&g) {
            *dj = -gj + beta * *dj;
            d_norm_sq += *dj * *dj;
        }
        // Line 9: dynamic step size with hyperbolic decay.
        let d_norm = d_norm_sq.sqrt();
        if d_norm == 0.0 {
            obs::telemetry::record_iteration(iterations as u64, None, gnorm, 0.0, k as u64);
            converged = true;
            break;
        }
        let alpha = config.step_size
            / ((1.0 + config.step_decay * (step_offset + iterations) as f64) * d_norm);
        // Line 10: update.
        vecops::axpy(alpha, &d, &mut x);
        stepped = true;
        std::mem::swap(&mut g, &mut g_prev);
        std::mem::swap(&mut support, &mut prev_support);
        have_prev = true;
        iterations += 1;

        // Line 2's relative-variation test, applied to the objective
        // estimate over a window to de-noise the stochastic steps.
        let mut window_obj = None;
        if iterations.is_multiple_of(config.check_window) {
            let obj = probe.estimate(problem, &x);
            window_obj = Some(obj);
            if let Err(e) = guard.check_window(obj, iterate_norm_sq(&x, round.as_ref())) {
                fault = Some(e);
            } else if obj <= floor {
                converged = true;
            } else if obj < best_obj * (1.0 - config.inner_tolerance) {
                best_obj = obj;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= 2 {
                    converged = true;
                }
            }
        }
        obs::telemetry::record_iteration(
            (iterations - 1) as u64,
            window_obj,
            gnorm,
            alpha,
            k as u64,
        );
        if converged || fault.is_some() {
            break;
        }
    }

    let objective = problem.objective(&x);
    obs::telemetry::solve_end(converged, iterations as u64, rows_touched, Some(objective));
    let result = SolveResult {
        objective,
        x,
        iterations,
        elapsed: start.elapsed(),
        converged,
        rows_touched,
        fault,
    };
    (result, stepped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::testutil::planted;
    use rand::SeedableRng;

    #[test]
    fn scg_reduces_objective_substantially() {
        let (p, _) = planted(600, 60, 8, 0.9, 21);
        let x0 = vec![0.0; p.num_gates()];
        let f0 = p.objective(&x0);
        let mut rng = StdRng::seed_from_u64(1);
        let r = solve(&p, &MgbaConfig::default(), &x0, &mut rng);
        assert!(r.objective < 0.15 * f0, "{} !< 0.15·{}", r.objective, f0);
    }

    #[test]
    fn scg_touches_fewer_rows_per_iteration_than_gd() {
        let (p, _) = planted(1000, 50, 6, 0.9, 22);
        let x0 = vec![0.0; p.num_gates()];
        let mut rng = StdRng::seed_from_u64(2);
        let r = solve(&p, &MgbaConfig::default(), &x0, &mut rng);
        // 2% of 1000 rows = 20 rows per iteration.
        assert_eq!(r.rows_touched, 20 * r.iterations as u64);
    }

    #[test]
    fn scg_deterministic_given_seed() {
        let (p, _) = planted(300, 40, 6, 0.9, 23);
        let x0 = vec![0.0; p.num_gates()];
        let a = solve(
            &p,
            &MgbaConfig::default(),
            &x0,
            &mut StdRng::seed_from_u64(3),
        );
        let b = solve(
            &p,
            &MgbaConfig::default(),
            &x0,
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(a.x, b.x);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn scg_warm_start_helps() {
        let (p, x_true) = planted(400, 40, 6, 0.9, 24);
        let cold = vec![0.0; p.num_gates()];
        let mut rng = StdRng::seed_from_u64(4);
        let r_cold = solve(&p, &MgbaConfig::default(), &cold, &mut rng);
        let mut rng = StdRng::seed_from_u64(4);
        let r_warm = solve(&p, &MgbaConfig::default(), &x_true, &mut rng);
        // Warm-started from the planted optimum, the solve stays at (or
        // improves on) the cold result with fewer or equal iterations.
        assert!(r_warm.objective <= r_cold.objective + 1e-6);
    }

    #[test]
    fn scg_handles_empty_problem() {
        let (p, _) = planted(10, 5, 2, 0.9, 25);
        let (sub, cols) = p.subproblem(&[]);
        assert!(cols.is_empty());
        let mut rng = StdRng::seed_from_u64(5);
        let r = solve(&sub, &MgbaConfig::default(), &[], &mut rng);
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn scg_constraint_violations_stay_bounded() {
        // The penalty keeps the solution from overshooting into
        // optimistic territory: violations at the solution are rare.
        let (p, _) = planted(500, 50, 6, 0.85, 26);
        let x0 = vec![0.0; p.num_gates()];
        let mut rng = StdRng::seed_from_u64(6);
        let r = solve(&p, &MgbaConfig::default(), &x0, &mut rng);
        let frac = p.violations(&r.x) as f64 / p.num_paths() as f64;
        assert!(frac < 0.2, "violation fraction {frac} too high");
    }
}
