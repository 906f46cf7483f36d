//! Uniform row sampling with doubling — the paper's Algorithm 1
//! (`SCG + RS`).
//!
//! The optimal weight vector is extremely sparse (Fig. 3: ~96% of entries
//! near zero), so a small uniformly sampled subset of the path equations
//! already pins it down. Algorithm 1 starts from a tiny row ratio `r₀`,
//! solves the reduced problem with SCG (warm-started from the previous
//! round), and doubles the ratio until the solution stops moving
//! (relative change below `ε_u`).

use crate::config::MgbaConfig;
use crate::problem::FitProblem;
use crate::solver::{scg, ObjectiveProbe, SolveResult};
use rand::rngs::StdRng;
use sparsela::sampling::UniformSampler;
use sparsela::vecops;
use std::time::Instant;

/// One doubling round of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingRound {
    /// Row-selection ratio of this round.
    pub ratio: f64,
    /// Rows in the reduced problem.
    pub rows: usize,
    /// Relative solution change vs. the previous round (`∞` on the first).
    pub change: f64,
    /// Full-problem objective estimate after this round.
    pub objective: f64,
    /// Inner SCG iterations.
    pub inner_iterations: usize,
}

/// Runs Algorithm 1 and also returns the per-round trace (used to
/// regenerate the paper's Fig. 4 convergence plot).
pub fn solve_traced(
    problem: &FitProblem,
    config: &MgbaConfig,
    rng: &mut StdRng,
) -> (SolveResult, Vec<SamplingRound>) {
    let x0 = vec![0.0; problem.num_gates()];
    solve_traced_from(problem, config, &x0, 0, rng)
}

/// Runs Algorithm 1 starting the doubling loop from `x0` instead of the
/// zero vector. The reduced-problem rounds already warm-start from the
/// previous round internally; this extends the same continuation to the
/// outer call, so an incremental recalibration resumes from the prior
/// fit's `x*`. `step_offset` continues the inner step-decay schedule
/// that many iterations in (pass the previous solve's iteration count
/// so a near-optimal `x0` is refined with small steps rather than
/// knocked away by full-size ones). The ratio schedule is unchanged —
/// the keep-better-iterate rule guarantees the result is never worse
/// (on the probe) than `x0`.
///
/// # Panics
///
/// Panics if `x0.len() != num_gates`.
pub fn solve_traced_from(
    problem: &FitProblem,
    config: &MgbaConfig,
    x0: &[f64],
    step_offset: usize,
    rng: &mut StdRng,
) -> (SolveResult, Vec<SamplingRound>) {
    let _span = obs::span("scg_rs");
    obs::telemetry::solve_begin("SCG + RS");
    let start = Instant::now();
    let m = problem.num_paths();
    assert_eq!(
        x0.len(),
        problem.num_gates(),
        "warm start: dimension mismatch"
    );
    let sampler = UniformSampler::new();
    let probe = ObjectiveProbe::new(problem, 512);
    let mut x = x0.to_vec();
    let mut prev_obj = probe.estimate(problem, &x);
    let mut ratio = config.initial_row_ratio.clamp(0.0, 1.0);
    let mut rounds = Vec::new();
    let mut iterations = 0usize;
    let mut rows_touched = 0u64;
    let mut fault: Option<String> = None;
    let converged;

    loop {
        // Lines 1/5: uniform row sample at the current ratio, reduced to
        // the columns those rows touch.
        let rows = sampler.sample_ratio(rng, m, ratio);
        let (reduced, cols) = problem.subproblem(&rows);
        // Line 3: solve the reduced problem. Warm start from the previous
        // round's solution and continue the step-decay schedule across
        // rounds, so each round refines rather than re-randomizes.
        let inner = scg::solve_round(&reduced, &cols, config, &x, step_offset + iterations, rng);
        iterations += inner.iterations;
        rows_touched += inner.rows_touched;
        // A guard trip in the inner solve poisons the whole round
        // schedule: abort the doubling and report the fault (the last
        // accepted x is kept, but the ladder will judge the result).
        if inner.fault.is_some() {
            fault = inner.fault;
            converged = false;
            break;
        }
        // Line 2: relative solution variation, plus a full-problem
        // objective plateau test. The stochastic inner solves leave noise
        // on x, so the x-criterion alone can keep doubling long after the
        // fit quality has saturated; the objective probe (uniform rows,
        // fixed) measures the quantity the doubling is supposed to
        // improve.
        let change = vecops::relative_change(&inner.x, &x);
        let obj = probe.estimate(problem, &inner.x);
        rounds.push(SamplingRound {
            ratio,
            rows: rows.len(),
            change,
            objective: obj,
            inner_iterations: inner.iterations,
        });
        obs::telemetry::record_round(
            ratio,
            rows.len() as u64,
            change,
            obj,
            inner.iterations as u64,
        );
        // Keep the better iterate when a round regresses (possible when
        // its subsample was unrepresentative). "Better" is the probe's
        // unpenalized residual, not the penalized objective: a round
        // that lowers the residual by breaking the Eq. 6 bound is kept.
        if obj <= prev_obj {
            x = inner.x;
            prev_obj = obj;
        }
        // A round that did not move x at all (change exactly 0) while
        // sampling only a fraction of the rows is inconclusive, not
        // converged: with stochastic steps a zero change means every
        // sampled gradient vanished — e.g. the subsample drew only
        // zero-residual rows — which says nothing about the rows not
        // drawn. Keep doubling; the ratio-1.0 round still terminates.
        if change < config.outer_tolerance && (change > 0.0 || ratio >= 1.0) {
            converged = true;
            break;
        }
        if ratio >= 1.0 {
            // All rows already in play; accept the full-problem solve.
            converged = inner.converged;
            break;
        }
        // Line 4: double the ratio.
        ratio = (ratio * 2.0).min(1.0);
    }

    let objective = problem.objective(&x);
    obs::telemetry::solve_end(converged, iterations as u64, rows_touched, Some(objective));
    (
        SolveResult {
            objective,
            x,
            iterations,
            elapsed: start.elapsed(),
            converged,
            rows_touched,
            fault,
        },
        rounds,
    )
}

/// Runs Algorithm 1 (discarding the trace).
pub fn solve(problem: &FitProblem, config: &MgbaConfig, rng: &mut StdRng) -> SolveResult {
    solve_traced(problem, config, rng).0
}

/// Runs Algorithm 1 from `x0` (discarding the trace).
pub fn solve_from(
    problem: &FitProblem,
    config: &MgbaConfig,
    x0: &[f64],
    step_offset: usize,
    rng: &mut StdRng,
) -> SolveResult {
    solve_traced_from(problem, config, x0, step_offset, rng).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::testutil::planted;
    use rand::SeedableRng;

    #[test]
    fn rs_reduces_objective_substantially() {
        let (p, _) = planted(2000, 60, 8, 0.9, 31);
        let f0 = p.objective(&vec![0.0; p.num_gates()]);
        let mut rng = StdRng::seed_from_u64(7);
        let r = solve(&p, &MgbaConfig::default(), &mut rng);
        assert!(r.objective < 0.2 * f0, "{} !< 0.2·{}", r.objective, f0);
    }

    #[test]
    fn rs_touches_fewer_rows_than_plain_scg() {
        let (p, _) = planted(4000, 60, 8, 0.92, 32);
        let x0 = vec![0.0; p.num_gates()];
        let cfg = MgbaConfig::default();
        let mut rng = StdRng::seed_from_u64(8);
        let full = scg::solve(&p, &cfg, &x0, &mut rng);
        let mut rng = StdRng::seed_from_u64(8);
        let rs = solve(&p, &cfg, &mut rng);
        assert!(
            rs.rows_touched < full.rows_touched,
            "RS {} must touch fewer rows than full SCG {}",
            rs.rows_touched,
            full.rows_touched
        );
    }

    #[test]
    fn ratio_doubles_between_rounds() {
        let (p, _) = planted(1000, 50, 6, 0.9, 33);
        // Force several rounds by making the outer tolerance strict.
        let cfg = MgbaConfig {
            outer_tolerance: 1e-9,
            max_iterations: 200,
            ..MgbaConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let (_, rounds) = solve_traced(&p, &cfg, &mut rng);
        assert!(rounds.len() >= 2);
        for w in rounds.windows(2) {
            assert!((w[1].ratio - (w[0].ratio * 2.0).min(1.0)).abs() < 1e-12);
        }
        // Terminates at full ratio despite the impossible tolerance.
        assert_eq!(rounds.last().unwrap().ratio, 1.0);
    }

    #[test]
    fn first_effective_round_change_is_infinite_from_zero_start() {
        let (p, _) = planted(500, 40, 5, 0.9, 34);
        let mut rng = StdRng::seed_from_u64(10);
        let (_, rounds) = solve_traced(&p, &MgbaConfig::default(), &mut rng);
        // Early rounds whose subsample carries no gradient information
        // leave x untouched (change exactly 0). The first round that
        // does move x moves it away from the zero vector, so its
        // relative change is unbounded.
        let first_move = rounds
            .iter()
            .find(|r| r.change > 0.0)
            .expect("at least one round must move x");
        assert!(
            first_move.change.is_infinite() || first_move.change > 1.0,
            "change {}",
            first_move.change
        );
    }

    #[test]
    fn uninformative_round_does_not_end_the_doubling() {
        let (p, _) = planted(500, 40, 5, 0.9, 34);
        let mut rng = StdRng::seed_from_u64(10);
        let (r, rounds) = solve_traced(&p, &MgbaConfig::default(), &mut rng);
        // Whatever the subsamples looked like, the solve must not stop
        // at the all-zero iterate claiming success: the planted problem
        // has a strictly better solution than x = 0.
        let f0 = p.objective(&vec![0.0; p.num_gates()]);
        assert!(r.objective < f0, "{} !< {}", r.objective, f0);
        // And a stalled (change == 0) partial-ratio round is always
        // followed by another round at a doubled ratio.
        for w in rounds.windows(2) {
            if w[0].change == 0.0 {
                assert!((w[1].ratio - (w[0].ratio * 2.0).min(1.0)).abs() < 1e-12);
            }
        }
        if let Some(last) = rounds.last() {
            assert!(last.change > 0.0 || last.ratio >= 1.0);
        }
    }

    #[test]
    fn rs_deterministic_given_seed() {
        let (p, _) = planted(800, 40, 6, 0.9, 35);
        let a = solve(&p, &MgbaConfig::default(), &mut StdRng::seed_from_u64(11));
        let b = solve(&p, &MgbaConfig::default(), &mut StdRng::seed_from_u64(11));
        assert_eq!(a.x, b.x);
    }
}
