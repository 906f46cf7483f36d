//! Dense Algorithm 1 and 2 loops, the oracle for the sparse ones.
//!
//! [`scg`] and [`scg_rs`] run the paper's algorithms the plain way:
//! every round's sub-problem keeps all of the parent's columns, and every
//! SCG iteration sums `‖g‖`, the Polak–Ribière numerator and `‖d‖` over
//! all of them. The solvers in [`super::scg`] and [`super::sampling`]
//! skip only exact zeros, so the tests below require them to match these
//! loops bit for bit: the iterate, the objective, the counters, the fault
//! and every round of the trace.

use crate::config::MgbaConfig;
use crate::problem::FitProblem;
use crate::solver::guard::SolveGuard;
use crate::solver::sampling::{self, SamplingRound};
use crate::solver::{scg as sparse_scg, ObjectiveProbe, SolveResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsela::sampling::{NormSampler, UniformSampler};
use sparsela::vecops;
use std::time::Instant;

/// Algorithm 2 over all columns.
fn scg(
    problem: &FitProblem,
    config: &MgbaConfig,
    x0: &[f64],
    step_offset: usize,
    rng: &mut StdRng,
) -> SolveResult {
    let start = Instant::now();
    let m = problem.num_paths();
    let n = problem.num_gates();
    let mut x = x0.to_vec();
    let done = |x: Vec<f64>| SolveResult {
        objective: problem.objective(&x),
        x,
        iterations: 0,
        elapsed: start.elapsed(),
        converged: true,
        rows_touched: 0,
        fault: None,
    };
    if m == 0 || n == 0 {
        return done(x);
    }
    let norms = problem.matrix().row_norms_sq();
    let Some(sampler) = NormSampler::new(&norms) else {
        return done(x);
    };
    let k = ((m as f64 * config.row_fraction).ceil() as usize).clamp(1, m);
    let probe = ObjectiveProbe::new(problem, 512);
    let mut best_obj = probe.estimate(problem, &x);
    let floor = 1e-12 * vecops::norm2_sq(problem.pba_slacks()).max(1e-30);
    if best_obj <= floor {
        return done(x);
    }
    let mut guard = SolveGuard::new(config, best_obj);
    let mut fault: Option<String> = None;
    let mut g_prev: Vec<f64> = vec![0.0; n];
    let mut d: Vec<f64> = vec![0.0; n];
    let mut have_prev = false;
    let mut g = vec![0.0; n];
    let mut converged = false;
    let mut stalled = 0usize;
    let mut iterations = 0;
    let mut rows_touched = 0u64;
    while iterations < config.max_iterations {
        g.fill(0.0);
        for _ in 0..k {
            let row = sampler.draw(rng);
            problem.accumulate_row_gradient(row, &x, &mut g);
        }
        rows_touched += k as u64;
        let gnorm = vecops::normalize(&mut g);
        if let Err(e) = guard.check_value("gradient norm", gnorm) {
            fault = Some(e);
            break;
        }
        if gnorm == 0.0 {
            iterations += 1;
            have_prev = false;
            if iterations.is_multiple_of(config.check_window) {
                let obj = probe.estimate(problem, &x);
                if let Err(e) = guard.check_window(obj, vecops::norm2_sq(&x)) {
                    fault = Some(e);
                } else if obj <= floor || obj >= best_obj * (1.0 - config.inner_tolerance) {
                    converged = true;
                } else {
                    best_obj = obj;
                }
            }
            if converged || fault.is_some() {
                break;
            }
            continue;
        }
        let beta = if have_prev {
            let mut num = 0.0;
            for j in 0..n {
                num += g[j] * (g[j] - g_prev[j]);
            }
            num.max(0.0)
        } else {
            0.0
        };
        for j in 0..n {
            d[j] = -g[j] + beta * d[j];
        }
        let d_norm = vecops::norm2(&d);
        if d_norm == 0.0 {
            converged = true;
            break;
        }
        let alpha = config.step_size
            / ((1.0 + config.step_decay * (step_offset + iterations) as f64) * d_norm);
        vecops::axpy(alpha, &d, &mut x);
        g_prev.copy_from_slice(&g);
        have_prev = true;
        iterations += 1;
        if iterations.is_multiple_of(config.check_window) {
            let obj = probe.estimate(problem, &x);
            if let Err(e) = guard.check_window(obj, vecops::norm2_sq(&x)) {
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
        if converged || fault.is_some() {
            break;
        }
    }
    SolveResult {
        objective: problem.objective(&x),
        x,
        iterations,
        elapsed: start.elapsed(),
        converged,
        rows_touched,
        fault,
    }
}

/// Algorithm 1 with every round over all of the parent's columns.
fn scg_rs(
    problem: &FitProblem,
    config: &MgbaConfig,
    x0: &[f64],
    step_offset: usize,
    rng: &mut StdRng,
) -> (SolveResult, Vec<SamplingRound>) {
    let start = Instant::now();
    let m = problem.num_paths();
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
        let rows = sampler.sample_ratio(rng, m, ratio);
        let reduced = problem.uncompacted_subproblem(&rows);
        let inner = scg(&reduced, config, &x, step_offset + iterations, rng);
        iterations += inner.iterations;
        rows_touched += inner.rows_touched;
        if inner.fault.is_some() {
            fault = inner.fault;
            converged = false;
            break;
        }
        let change = vecops::relative_change(&inner.x, &x);
        let obj = probe.estimate(problem, &inner.x);
        rounds.push(SamplingRound {
            ratio,
            rows: rows.len(),
            change,
            objective: obj,
            inner_iterations: inner.iterations,
        });
        if obj <= prev_obj {
            x = inner.x;
            prev_obj = obj;
        }
        if change < config.outer_tolerance && (change > 0.0 || ratio >= 1.0) {
            converged = true;
            break;
        }
        if ratio >= 1.0 {
            converged = inner.converged;
            break;
        }
        ratio = (ratio * 2.0).min(1.0);
    }
    let objective = problem.objective(&x);
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything but the wall time, with every float compared by its bits.
fn assert_same(got: &SolveResult, want: &SolveResult, what: &str) {
    assert_eq!(bits(&got.x), bits(&want.x), "{what}: x");
    assert_eq!(
        got.objective.to_bits(),
        want.objective.to_bits(),
        "{what}: objective {} vs {}",
        got.objective,
        want.objective
    );
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(got.rows_touched, want.rows_touched, "{what}: rows_touched");
    assert_eq!(got.converged, want.converged, "{what}: converged");
    assert_eq!(got.fault, want.fault, "{what}: fault");
}

fn assert_same_rounds(got: &[SamplingRound], want: &[SamplingRound], what: &str) {
    let key = |r: &SamplingRound| {
        (
            r.ratio.to_bits(),
            r.rows,
            r.change.to_bits(),
            r.objective.to_bits(),
            r.inner_iterations,
        )
    };
    assert_eq!(
        got.iter().map(key).collect::<Vec<_>>(),
        want.iter().map(key).collect::<Vec<_>>(),
        "{what}: rounds"
    );
}

/// Runs both solvers against their dense references from `x0`.
fn check(problem: &FitProblem, config: &MgbaConfig, x0: &[f64], offset: usize, what: &str) {
    let rng = || StdRng::seed_from_u64(config.seed);
    let got = sparse_scg::solve_with_offset(problem, config, x0, offset, &mut rng());
    let want = scg(problem, config, x0, offset, &mut rng());
    assert_same(&got, &want, &format!("SCG {what}"));
    let (got, got_rounds) = sampling::solve_traced_from(problem, config, x0, offset, &mut rng());
    let (want, want_rounds) = scg_rs(problem, config, x0, offset, &mut rng());
    assert_same(&got, &want, &format!("SCG+RS {what}"));
    assert_same_rounds(&got_rounds, &want_rounds, &format!("SCG+RS {what}"));
}

/// The starts every problem is solved from: cold, a random warm start,
/// a warm start with `−0.0` entries (some in columns no row touches),
/// each also at a nonzero step offset.
fn starts(n: usize, seed: u64) -> Vec<(String, Vec<f64>, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let warm: Vec<f64> = (0..n).map(|_| rng.random_range(-0.2..0.05)).collect();
    let signed_zeros: Vec<f64> = (0..n)
        .map(|j| match j % 3 {
            0 => -0.0,
            1 => rng.random_range(-0.1..0.0),
            _ => 0.0,
        })
        .collect();
    let mut out = Vec::new();
    for offset in [0, 173] {
        out.push((format!("cold@{offset}"), vec![0.0; n], offset));
        out.push((format!("warm@{offset}"), warm.clone(), offset));
        out.push((format!("-0.0@{offset}"), signed_zeros.clone(), offset));
    }
    out
}

#[test]
fn sparse_solvers_match_the_dense_loops_on_planted_problems() {
    use crate::solver::testutil::planted;
    // (rows, columns, entries per row, sparsity): tall, square-ish,
    // wider than one bitset word, and wider than the rows can cover
    // (so some columns sit outside every round).
    let shapes = [
        (60, 12, 3, 0.8),
        (400, 40, 6, 0.9),
        (1200, 150, 8, 0.93),
        (300, 260, 4, 0.9),
        (40, 100, 3, 0.9),
    ];
    for (case, &(m, n, nnz, sparsity)) in shapes.iter().enumerate() {
        let (p, _) = planted(m, n, nnz, sparsity, 900 + case as u64);
        for seed in [1, 2] {
            let config = MgbaConfig {
                seed,
                ..MgbaConfig::default()
            };
            for (name, x0, offset) in starts(n, seed * 31 + case as u64) {
                check(
                    &p,
                    &config,
                    &x0,
                    offset,
                    &format!("{m}x{n} seed {seed} {name}"),
                );
            }
        }
    }
}

#[test]
fn a_non_finite_entry_outside_every_round_trips_the_guard_as_before() {
    use crate::solver::testutil::planted;
    // 40 rows cannot touch all 100 columns: an inf or NaN in a column no
    // row reads only shows in the window guard's norm of the full iterate.
    let (p, _) = planted(40, 100, 3, 0.9, 950);
    let untouched = (0..p.num_gates())
        .find(|&j| (0..p.num_paths()).all(|i| !p.matrix().row(i).0.contains(&(j as u32))))
        .expect("an uncovered column");
    for poison in [f64::INFINITY, f64::NAN] {
        let mut x0 = vec![0.0; p.num_gates()];
        x0[untouched] = poison;
        let config = MgbaConfig::default();
        check(
            &p,
            &config,
            &x0,
            0,
            &format!("{poison} at column {untouched}"),
        );
        let r = sparse_scg::solve(&p, &config, &x0, &mut StdRng::seed_from_u64(1));
        assert!(r.fault.is_some(), "{poison}: the guard must trip");
    }
}

#[test]
fn sparse_solvers_match_the_dense_loops_on_d1_flow_fits() {
    use crate::select::{select_paths, SelectionScheme};
    // D1 at the closure flow's period (see `bench::build_flow_engine`).
    let netlist = netlist::DesignSpec::D1.generate();
    let sta = crate::build_engine_at_fraction(netlist, 100_000.0, 0.15 * 0.45).unwrap();
    // The repair phase fits violating paths; recovery fits every
    // endpoint's five worst.
    for (phase, only_violating, k) in [("repair", true, 20), ("recovery", false, 5)] {
        let config = MgbaConfig::default();
        let selection = select_paths(
            &sta,
            SelectionScheme::PerEndpoint {
                k,
                max_total: config.max_paths,
            },
            only_violating,
        );
        let p = FitProblem::build(&sta, &selection.paths, config.epsilon, config.penalty);
        assert!(p.num_paths() > 100, "{phase}: {} paths", p.num_paths());
        let cold = vec![0.0; p.num_gates()];
        check(&p, &config, &cold, 0, &format!("D1 {phase} cold"));
        // A warm refit from the cold fit's weights, resumed.
        let fit = sampling::solve(&p, &config, &mut StdRng::seed_from_u64(config.seed));
        check(
            &p,
            &config,
            &fit.x,
            fit.iterations,
            &format!("D1 {phase} warm"),
        );
    }
}
