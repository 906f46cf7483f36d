//! Optimization solvers for the mGBA fitting problem.
//!
//! Three solvers matching the paper's Table 4 comparison, plus a
//! deterministic reference:
//!
//! | module       | paper name   | description |
//! |--------------|--------------|-------------|
//! | [`gd`]       | GD + w/o RS  | full-gradient descent over all rows |
//! | [`scg`]      | SCG + w/o RS | Algorithm 2: stochastic conjugate gradient with randomized-Kaczmarz row draws |
//! | [`sampling`] | SCG + RS     | Algorithm 1: uniform row sampling with doubling, SCG inner solver |
//! | [`cgnr`]     | —            | conjugate gradient on the normal equations with an active-set penalty loop; the accuracy oracle used for Fig. 3/Fig. 4 |
//!
//! All stochastic solvers share the convergence rule: every
//! `check_window` iterations the penalized objective is estimated on a
//! fixed row subsample, and the solve stops when the relative improvement
//! over the window falls below `inner_tolerance` (the practical analogue
//! of the paper's relative-variation test, robust to stochastic noise).

pub mod cgnr;
pub mod gd;
pub(crate) mod guard;
#[cfg(test)]
mod reference;
pub mod sampling;
pub mod scg;

use crate::config::MgbaConfig;
use crate::error::MgbaError;
use crate::problem::FitProblem;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Which solver to run (the paper's Table 4 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Solver {
    /// Gradient descent without row selection (`GD + w/o RS`).
    Gd,
    /// Stochastic conjugate gradient without row selection
    /// (`SCG + w/o RS`).
    Scg,
    /// Uniform row sampling with SCG inner solves (`SCG + RS`).
    ScgRs,
    /// Deterministic conjugate-gradient reference (not in the paper's
    /// comparison; used as the accuracy oracle).
    Cgnr,
}

/// Every solver, in declaration order, with its short name (the CLI
/// `--solver` value and the server's `solver` field) and its paper-style
/// name.
const NAMES: [(Solver, &str, &str); 4] = [
    (Solver::Gd, "gd", "GD + w/o RS"),
    (Solver::Scg, "scg", "SCG + w/o RS"),
    (Solver::ScgRs, "scgrs", "SCG + RS"),
    (Solver::Cgnr, "cgnr", "CGNR (reference)"),
];

impl Solver {
    /// Paper-style display name.
    pub fn paper_name(self) -> &'static str {
        NAMES[self as usize].2
    }

    /// The solver a short name (`gd`, `scg`, `scgrs`, `cgnr`) names.
    ///
    /// # Errors
    ///
    /// [`MgbaError::Usage`] for any other name.
    pub fn parse(name: &str) -> Result<Self, MgbaError> {
        NAMES
            .iter()
            .find(|n| n.1 == name)
            .map(|n| n.0)
            .ok_or_else(|| MgbaError::Usage(format!("unknown solver `{name}`")))
    }

    /// The solver whose [`Self::paper_name`] is `name`, if any.
    pub fn from_paper_name(name: &str) -> Option<Self> {
        NAMES.iter().find(|n| n.2 == name).map(|n| n.0)
    }

    /// Runs this solver on `problem` from a zero start.
    pub fn solve(self, problem: &FitProblem, config: &MgbaConfig) -> SolveResult {
        self.solve_from(problem, config, None)
    }

    /// Runs this solver on `problem`, starting from `warm_start` when
    /// given (a previous fit's `x*` plus the decay offset to resume at)
    /// and from zero otherwise. With `warm_start: None` this is
    /// bit-identical to [`Solver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if the warm vector's length differs from
    /// `problem.num_gates()` — callers decide the miss policy (the
    /// server falls back to a cold start) before reaching the solver.
    pub fn solve_from(
        self,
        problem: &FitProblem,
        config: &MgbaConfig,
        warm_start: Option<WarmStart<'_>>,
    ) -> SolveResult {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let offset = warm_start.map_or(0, |w| w.step_offset);
        let x0: Vec<f64> = match warm_start {
            Some(w) => {
                assert_eq!(
                    w.x.len(),
                    problem.num_gates(),
                    "warm start: dimension mismatch"
                );
                w.x.to_vec()
            }
            None => vec![0.0; problem.num_gates()],
        };
        match self {
            Solver::Gd => gd::solve_with_offset(problem, config, &x0, offset),
            Solver::Scg => scg::solve_with_offset(problem, config, &x0, offset, &mut rng),
            Solver::ScgRs => sampling::solve_from(problem, config, &x0, offset, &mut rng),
            Solver::Cgnr => cgnr::solve_from(problem, config, &x0),
        }
    }
}

/// A warm start for [`Solver::solve_from`]: the previous fit's solution
/// and how far into the hyperbolic step-decay schedule to resume.
///
/// The offset is what makes warm starts *fast*, not just correct: the
/// stochastic solvers take steps `α ∝ 1/(1 + decay·t)`, and restarting
/// at `t = 0` means the first steps are large enough to knock a
/// near-optimal iterate away from the optimum it starts at — the solve
/// then spends its budget re-converging. Resuming at the previous
/// solve's cumulative iteration count continues the schedule as if the
/// perturbed rows had changed mid-run, so a near-optimal start stalls
/// (converges) within a couple of check windows. CGNR derives its step
/// from line search and ignores the offset.
#[derive(Debug, Clone, Copy)]
pub struct WarmStart<'a> {
    /// Starting iterate (a previous solve's `x*`).
    pub x: &'a [f64],
    /// Iterations already "spent" on the decay schedule.
    pub step_offset: usize,
}

impl<'a> WarmStart<'a> {
    /// Warm start from `x` at the top of the decay schedule.
    pub fn new(x: &'a [f64]) -> Self {
        WarmStart { x, step_offset: 0 }
    }

    /// Warm start from `x`, resuming the decay `step_offset` iterations
    /// in (typically the previous solve's iteration count).
    pub fn resumed(x: &'a [f64], step_offset: usize) -> Self {
        WarmStart { x, step_offset }
    }
}

impl std::fmt::Display for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Outcome of a solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The fitted weights in problem column space.
    pub x: Vec<f64>,
    /// Iterations performed (inner iterations summed for `ScgRs`).
    pub iterations: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Final penalized objective value (exact, full rows).
    pub objective: f64,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
    /// Total row-gradient evaluations — the hardware-independent work
    /// measure used alongside wall time in the benches.
    pub rows_touched: u64,
    /// Why the stage was aborted by its guard (or a fault injection),
    /// `None` on a clean run. A faulted result must not be used; the
    /// fallback ladder demotes it.
    pub fault: Option<String>,
}

/// Which rung of the degradation ladder produced the accepted weights.
///
/// A failed solve demotes `requested solver → CGNR → GD → identity
/// weights`; identity (x = 0) leaves GBA slacks untouched, which is
/// always safe because GBA is pessimistic by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FallbackStage {
    /// The requested solver's result was accepted.
    Primary,
    /// Demoted to the deterministic CGNR reference.
    Cgnr,
    /// Demoted to full gradient descent.
    Gd,
    /// All solvers failed; identity weights (x = 0, raw GBA slacks).
    Identity,
}

impl FallbackStage {
    /// Stable lowercase name used in reports and metrics.
    pub fn name(self) -> &'static str {
        match self {
            FallbackStage::Primary => "primary",
            FallbackStage::Cgnr => "cgnr",
            FallbackStage::Gd => "gd",
            FallbackStage::Identity => "identity",
        }
    }

    /// Whether this stage means the calibration is serving raw GBA.
    pub fn is_degraded(self) -> bool {
        matches!(self, FallbackStage::Identity)
    }
}

impl std::fmt::Display for FallbackStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Accepts a stage result only when it is strictly usable: no guard
/// fault, a fully finite iterate, and an objective no worse than the
/// zero-weight starting point `f0` (a solver must never *add*
/// pessimism-correction error).
fn acceptable(r: &SolveResult, f0: f64) -> bool {
    r.fault.is_none()
        && r.objective.is_finite()
        && r.x.iter().all(|v| v.is_finite())
        && f0.is_finite()
        && r.objective <= f0 + f0.abs() * 1e-9 + 1e-12
}

/// Runs `solver` with the staged fallback ladder.
///
/// Stages are tried in order (requested solver, then [`Solver::Cgnr`],
/// then [`Solver::Gd`], skipping duplicates) until one passes the
/// acceptance check (no fault, finite iterate, objective no worse than
/// x = 0); otherwise identity weights (x = 0) are returned,
/// which reproduce raw GBA slacks. With `config.fallback == false` the
/// intermediate stages are skipped: the requested solver either passes
/// or the result drops straight to identity.
pub fn solve_with_fallback(
    solver: Solver,
    problem: &FitProblem,
    config: &MgbaConfig,
) -> (SolveResult, FallbackStage) {
    solve_with_fallback_from(solver, problem, config, None)
}

/// [`solve_with_fallback`] with an optional warm start.
///
/// The warm vector is threaded through *every* rung of the ladder — a
/// demotion (requested → CGNR → GD) resumes from the same `x0` rather
/// than re-deriving a cold start. Acceptance is still judged against the
/// zero-weight objective `f0`: a warm start that somehow lands worse
/// than identity weights is demoted all the way to identity, so a stale
/// or misleading `x0` can never make the served calibration worse than
/// raw GBA.
pub fn solve_with_fallback_from(
    solver: Solver,
    problem: &FitProblem,
    config: &MgbaConfig,
    warm_start: Option<WarmStart<'_>>,
) -> (SolveResult, FallbackStage) {
    let start = Instant::now();
    let f0 = problem.objective(&vec![0.0; problem.num_gates()]);
    let mut ladder: Vec<(Solver, FallbackStage)> = vec![(solver, FallbackStage::Primary)];
    if config.fallback {
        if solver != Solver::Cgnr {
            ladder.push((Solver::Cgnr, FallbackStage::Cgnr));
        }
        if solver != Solver::Gd {
            ladder.push((Solver::Gd, FallbackStage::Gd));
        }
    }
    let mut last_fault = None;
    for (stage_solver, stage) in ladder {
        let result = stage_solver.solve_from(problem, config, warm_start);
        if acceptable(&result, f0) {
            if stage != FallbackStage::Primary {
                obs::counter_add(&format!("mgba.fallback.{}", stage.name()), 1);
            }
            return (result, stage);
        }
        let reason = result
            .fault
            .clone()
            .unwrap_or_else(|| format!("unusable result (objective {})", result.objective));
        obs::counter_add("mgba.solver.stage_failed", 1);
        last_fault = Some(format!("{}: {reason}", stage_solver.paper_name()));
    }
    obs::counter_add("mgba.fallback.identity", 1);
    let n = problem.num_gates();
    (
        SolveResult {
            x: vec![0.0; n],
            iterations: 0,
            elapsed: start.elapsed(),
            objective: f0,
            converged: false,
            rows_touched: 0,
            fault: last_fault,
        },
        FallbackStage::Identity,
    )
}

/// Objective estimator over a fixed row subset, shared by GD and SCG for
/// their plateau-based convergence checks.
pub(crate) struct ObjectiveProbe {
    rows: Vec<usize>,
}

impl ObjectiveProbe {
    /// Probe over at most `cap` evenly spaced rows.
    pub(crate) fn new(problem: &FitProblem, cap: usize) -> Self {
        let m = problem.num_paths();
        let rows = if m <= cap {
            (0..m).collect()
        } else {
            (0..cap).map(|i| i * m / cap).collect()
        };
        Self { rows }
    }

    /// Sums the squared residual `(aᵢ·x − (s_gba − s_pba)ᵢ)²` over the
    /// probe rows. It leaves out the Eq. 6 penalty that
    /// [`FitProblem::objective`] adds, so an iterate that trades a
    /// smaller residual for a larger penalty reads as an improvement
    /// here.
    pub(crate) fn estimate(&self, problem: &FitProblem, x: &[f64]) -> f64 {
        let mut f = 0.0;
        for &i in &self.rows {
            let ax = problem.matrix().row_dot(i, x);
            let r = ax - (problem.gba_slacks()[i] - problem.pba_slacks()[i]);
            f += r * r;
        }
        f
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::problem::FitProblem;
    use netlist::CellId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparsela::CsrBuilder;

    /// A synthetic sparse fitting problem with a planted sparse solution:
    /// `s_pba = s_gba − A·x_true`, so the optimum of the unpenalized
    /// objective is exactly `x_true` (residual 0) when rows ≥ columns with
    /// full column coverage.
    pub(crate) fn planted(
        m: usize,
        n: usize,
        nnz_per_row: usize,
        sparsity: f64,
        seed: u64,
    ) -> (FitProblem, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x_true = vec![0.0; n];
        for xi in x_true.iter_mut() {
            if rng.random_bool(1.0 - sparsity) {
                *xi = rng.random_range(-0.25..-0.02);
            }
        }
        let mut builder = CsrBuilder::new(n);
        let mut s_gba = Vec::with_capacity(m);
        for i in 0..m {
            let mut row = Vec::with_capacity(nnz_per_row);
            // Guarantee column coverage: deterministic first column.
            row.push((i % n, rng.random_range(50.0..150.0)));
            for _ in 1..nnz_per_row {
                row.push((rng.random_range(0..n), rng.random_range(50.0..150.0)));
            }
            builder.push_row(&row);
            s_gba.push(-rng.random_range(50.0..500.0));
        }
        let a = builder.build();
        let ax = a.matvec(&x_true);
        let s_pba: Vec<f64> = s_gba.iter().zip(&ax).map(|(g, v)| g - v).collect();
        let columns = (0..n).map(CellId::new).collect();
        let p = FitProblem::from_parts(a, s_gba, s_pba, columns, 0.05, 4.0);
        (p, x_true)
    }

    /// A problem whose golden (PBA) slacks are all NaN — what a corrupted
    /// derate table upstream would produce. No solver stage can yield a
    /// finite objective on it, so the fallback ladder must bottom out at
    /// identity weights.
    pub(crate) fn poisoned(m: usize, n: usize, seed: u64) -> FitProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = CsrBuilder::new(n);
        let mut s_gba = Vec::with_capacity(m);
        for i in 0..m {
            builder.push_row(&[(i % n, rng.random_range(50.0..150.0))]);
            s_gba.push(-rng.random_range(50.0..500.0));
        }
        let a = builder.build();
        let s_pba = vec![f64::NAN; m];
        let columns = (0..n).map(CellId::new).collect();
        FitProblem::from_parts(a, s_gba, s_pba, columns, 0.05, 4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_names() {
        assert_eq!(Solver::Gd.paper_name(), "GD + w/o RS");
        assert_eq!(Solver::ScgRs.to_string(), "SCG + RS");
        for (i, &(solver, short, paper)) in NAMES.iter().enumerate() {
            assert_eq!(
                solver as usize, i,
                "{short}: table out of declaration order"
            );
            assert_eq!(Solver::parse(short).unwrap(), solver);
            assert_eq!(Solver::from_paper_name(paper), Some(solver));
        }
        let e = Solver::parse("bogus").unwrap_err();
        assert_eq!(e.to_string(), "unknown solver `bogus`");
        assert_eq!(Solver::from_paper_name("bogus"), None);
    }

    #[test]
    fn probe_covers_small_problems_fully() {
        let (p, _) = testutil::planted(50, 10, 4, 0.9, 1);
        let probe = ObjectiveProbe::new(&p, 100);
        let x = vec![0.0; p.num_gates()];
        // On a fully covered probe the estimate equals the unpenalized
        // objective (no violations at x = 0).
        assert!((probe.estimate(&p, &x) - p.objective(&x)).abs() < 1e-9);
    }

    #[test]
    fn fallback_stage_names_are_stable() {
        assert_eq!(FallbackStage::Primary.name(), "primary");
        assert_eq!(FallbackStage::Cgnr.name(), "cgnr");
        assert_eq!(FallbackStage::Gd.name(), "gd");
        assert_eq!(FallbackStage::Identity.to_string(), "identity");
        assert!(FallbackStage::Identity.is_degraded());
        assert!(!FallbackStage::Cgnr.is_degraded());
    }

    #[test]
    fn fallback_stays_primary_on_healthy_problems() {
        let (p, _) = testutil::planted(300, 40, 6, 0.9, 71);
        for solver in [Solver::Gd, Solver::Scg, Solver::ScgRs, Solver::Cgnr] {
            let (r, stage) = solve_with_fallback(solver, &p, &MgbaConfig::default());
            assert_eq!(stage, FallbackStage::Primary, "{solver}");
            assert!(r.fault.is_none(), "{solver}: {:?}", r.fault);
        }
    }

    #[test]
    fn fallback_is_bit_identical_to_direct_solve_when_healthy() {
        // The ladder must be a pure wrapper on the happy path: same
        // iterate, bit for bit, as calling the solver directly.
        let (p, _) = testutil::planted(300, 40, 6, 0.9, 72);
        let cfg = MgbaConfig::default();
        let direct = Solver::Scg.solve(&p, &cfg);
        let (laddered, _) = solve_with_fallback(Solver::Scg, &p, &cfg);
        assert_eq!(direct.x, laddered.x);
        assert_eq!(direct.iterations, laddered.iterations);
    }

    #[test]
    fn solve_from_none_is_bit_identical_to_cold_solve() {
        let (p, _) = testutil::planted(300, 40, 6, 0.9, 76);
        let cfg = MgbaConfig::default();
        for solver in [Solver::Gd, Solver::Scg, Solver::ScgRs, Solver::Cgnr] {
            let cold = solver.solve(&p, &cfg);
            let via = solver.solve_from(&p, &cfg, None);
            assert_eq!(cold.x, via.x, "{solver}");
            assert_eq!(cold.iterations, via.iterations, "{solver}");
        }
    }

    #[test]
    fn warm_start_converges_to_the_cold_optimum() {
        // Warm and cold starts must agree: the objective is convex, so
        // every solver lands at (or provably no worse than) the same
        // optimum when resumed from a previous solution.
        let (p, _) = testutil::planted(600, 50, 6, 0.9, 77);
        let cfg = MgbaConfig::default();
        let oracle = cgnr::solve(&p, &cfg);
        for solver in [Solver::Gd, Solver::Scg, Solver::ScgRs, Solver::Cgnr] {
            let warm = solver.solve_from(&p, &cfg, Some(WarmStart::new(&oracle.x)));
            let slack = oracle.objective.abs() * 0.05 + 1e-6;
            assert!(
                warm.objective <= oracle.objective + slack,
                "{solver}: warm {} vs oracle {}",
                warm.objective,
                oracle.objective
            );
        }
    }

    #[test]
    fn warm_ladder_is_bit_identical_to_direct_warm_solve_when_healthy() {
        // Same wrapper-purity pin as the cold variant: on the happy path
        // the ladder with a warm start returns exactly what the primary
        // solver returns from that start.
        let (p, _) = testutil::planted(300, 40, 6, 0.9, 78);
        let cfg = MgbaConfig::default();
        let seed_fit = cgnr::solve(&p, &cfg);
        let direct = Solver::Scg.solve_from(&p, &cfg, Some(WarmStart::new(&seed_fit.x)));
        let (laddered, stage) =
            solve_with_fallback_from(Solver::Scg, &p, &cfg, Some(WarmStart::new(&seed_fit.x)));
        assert_eq!(stage, FallbackStage::Primary);
        assert_eq!(direct.x, laddered.x);
        assert_eq!(direct.iterations, laddered.iterations);
    }

    #[test]
    fn unusable_warm_start_demotes_to_identity_not_worse() {
        // A hostile warm vector must never make the served weights worse
        // than identity: with the ladder disabled and an iteration budget
        // of zero, the primary solver returns the warm iterate unchanged,
        // its objective exceeds f0, and acceptance drops to identity.
        let (p, _) = testutil::planted(200, 30, 5, 0.9, 79);
        let cfg = MgbaConfig {
            fallback: false,
            max_iterations: 0,
            ..MgbaConfig::default()
        };
        let bad = vec![1e6; p.num_gates()];
        let (r, stage) = solve_with_fallback_from(Solver::Gd, &p, &cfg, Some(WarmStart::new(&bad)));
        assert_eq!(stage, FallbackStage::Identity);
        assert!(r.x.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn warm_start_poisoned_problem_still_bottoms_out_at_identity() {
        let p = testutil::poisoned(100, 20, 80);
        let warm = vec![-0.1; p.num_gates()];
        let (r, stage) = solve_with_fallback_from(
            Solver::ScgRs,
            &p,
            &MgbaConfig::default(),
            Some(WarmStart::new(&warm)),
        );
        assert_eq!(stage, FallbackStage::Identity);
        assert!(r.x.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn nan_golden_slacks_fall_back_to_identity() {
        let p = testutil::poisoned(100, 20, 73);
        for solver in [Solver::Gd, Solver::Scg, Solver::ScgRs, Solver::Cgnr] {
            let (r, stage) = solve_with_fallback(solver, &p, &MgbaConfig::default());
            assert_eq!(stage, FallbackStage::Identity, "{solver}");
            assert!(stage.is_degraded());
            assert!(r.x.iter().all(|v| *v == 0.0), "{solver}: x must be zero");
            assert!(r.fault.is_some(), "{solver}: demotion reason recorded");
        }
    }

    #[test]
    fn fallback_disabled_still_never_returns_poisoned_weights() {
        let p = testutil::poisoned(60, 10, 74);
        let cfg = MgbaConfig {
            fallback: false,
            ..MgbaConfig::default()
        };
        let (r, stage) = solve_with_fallback(Solver::Scg, &p, &cfg);
        assert_eq!(stage, FallbackStage::Identity);
        assert!(r.x.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn wall_clock_timeout_demotes_the_primary_stage() {
        // An effectively unreachable iteration cap plus a 1 ms budget: the
        // per-iteration deadline check must abort SCG long before the cap.
        let (p, _) = testutil::planted(4000, 200, 8, 0.95, 75);
        let cfg = MgbaConfig {
            solver_timeout_ms: 1,
            max_iterations: 100_000_000,
            inner_tolerance: 0.0,
            ..MgbaConfig::default()
        };
        let (r, stage) = solve_with_fallback(Solver::Scg, &p, &cfg);
        assert_ne!(stage, FallbackStage::Primary);
        // Whatever rung accepted, the result is usable: fully finite.
        assert!(r.x.iter().all(|v| v.is_finite()));
    }
}
