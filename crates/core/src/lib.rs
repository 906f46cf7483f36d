//! # mGBA — modified graph-based timing analysis
//!
//! Reproduction of *"A General Graph Based Pessimism Reduction Framework
//! for Design Optimization of Timing Closure"* (DAC 2018).
//!
//! GBA timing is fast but pessimistic; PBA is accurate but unusably slow
//! inside optimization loops. mGBA fits a per-gate weighting factor so
//! that GBA-style slack calculation matches golden PBA slacks on the
//! critical paths, then folds the weights back into the timing graph —
//! keeping graph-based speed at near-path-based accuracy.
//!
//! The pipeline ([`run_mgba`]):
//!
//! 1. **Select** critical paths per endpoint ([`select`], paper §3.2);
//! 2. **Label** them with golden PBA slacks ([`sta::pba`]);
//! 3. **Assemble** the constrained least-squares problem ([`problem`],
//!    Eq. (5)–(9));
//! 4. **Solve** with the accelerated solver stack ([`solver`]):
//!    uniform row sampling (Algorithm 1) over stochastic conjugate
//!    gradient (Algorithm 2);
//! 5. **Apply** the weights to the timing engine
//!    ([`sta::Sta::set_weights`]) and report accuracy ([`metrics`]).
//!
//! A [`Calibration`] keeps that state to refit warm after committed
//! edits, re-timing only the rows the edits invalidated.
//!
//! # Example
//!
//! ```
//! use mgba::{run_mgba, MgbaConfig, Solver};
//! use netlist::GeneratorConfig;
//! use sta::{DerateSet, Sdc, Sta};
//!
//! # fn main() -> Result<(), netlist::BuildError> {
//! let design = GeneratorConfig::small(3).generate();
//! let mut sta = Sta::new(design, Sdc::with_period(900.0), DerateSet::standard())?;
//! let report = run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
//! // The corrected slacks track PBA far better than original GBA.
//! assert!(report.pass_after.ratio() >= report.pass_before.ratio());
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod error;
pub mod load;
pub mod metrics;
pub mod problem;
pub mod report;
pub mod select;
pub mod solver;
pub mod weights_io;

pub use config::MgbaConfig;
pub use error::{MgbaError, ParseError};
pub use load::{
    auto_period, build_engine, build_engine_at_fraction, build_engine_auto, load_design_or_file,
    load_netlist_file, parse_design, sdc_at,
};
pub use metrics::{PassRatio, PASS_ABS_TOL, PASS_REL_TOL};
pub use problem::FitProblem;
pub use report::{AccuracyReport, EndpointAccuracy, StageAccuracy};
pub use select::{select_paths, Selection, SelectionScheme};
pub use solver::{
    solve_with_fallback, solve_with_fallback_from, FallbackStage, SolveResult, Solver, WarmStart,
};
pub use weights_io::{
    apply_weights, atomic_write_text, parse_weights, read_weights_file, write_weights,
    write_weights_file, WeightsError,
};

/// One-import facade for the select → fit → solve → fold-back pipeline.
///
/// Brings in everything a typical calibration driver touches: the engine
/// ([`Sta`]) and its inputs, the fit configuration, the solver stack, the
/// [`Calibration`] that refits after edits, and the typed error.
/// Flow-level types (`FlowConfig`, `run_flow`) live in `optim::prelude`,
/// which re-exports this one.
pub mod prelude {
    pub use crate::config::MgbaConfig;
    pub use crate::error::{MgbaError, ParseError};
    pub use crate::load::{
        auto_period, build_engine, build_engine_at_fraction, build_engine_auto,
        load_design_or_file, load_netlist_file, parse_design,
    };
    pub use crate::metrics::PassRatio;
    pub use crate::problem::FitProblem;
    pub use crate::report::AccuracyReport;
    pub use crate::select::{select_paths, Selection, SelectionScheme};
    pub use crate::solver::{FallbackStage, SolveResult, Solver, WarmStart};
    pub use crate::weights_io::{
        atomic_write_text, parse_weights, read_weights_file, write_weights, write_weights_file,
    };
    pub use crate::{run_mgba, run_mgba_with_accuracy, Calibration, MgbaReport, RecalibrateReport};
    pub use netlist::{DesignSpec, GeneratorConfig, Netlist};
    pub use sta::{DerateSet, Sdc, Sta};
}

use netlist::CellId;
use problem::RowIndex;
use serde::{Deserialize, Serialize};
use sta::{gba_path_timing_batch, pba_timing_batch, Path, Sta};
use std::time::Duration;

/// Summary of one end-to-end mGBA run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MgbaReport {
    /// Design name.
    pub design: String,
    /// Solver used.
    pub solver_name: String,
    /// Selected (fitted) timing paths.
    pub num_paths: usize,
    /// Gates appearing on selected paths (problem columns).
    pub num_gates: usize,
    /// Gate coverage of the selection, `[0, 1]`.
    pub coverage: f64,
    /// Modelling squared error (Eq. 12) of original GBA vs. PBA.
    pub mse_before: f64,
    /// Modelling squared error of mGBA (weights applied) vs. PBA.
    pub mse_after: f64,
    /// Pass ratio (Table 3 rule) of original GBA.
    pub pass_before: PassRatio,
    /// Pass ratio of mGBA.
    pub pass_after: PassRatio,
    /// Solver iterations.
    pub iterations: usize,
    /// Solver wall time.
    pub solve_time: Duration,
    /// Row-gradient evaluations performed by the solver.
    pub rows_touched: u64,
    /// Whether the solver reported convergence.
    pub converged: bool,
    /// Which rung of the degradation ladder produced the weights
    /// ([`FallbackStage::Primary`] on a healthy run).
    pub fallback: FallbackStage,
    /// Why solver stages were demoted, when any were (`None` on a
    /// healthy run).
    pub solver_fault: Option<String>,
    /// The fitted per-cell weights (netlist cell space).
    pub weights: Vec<f64>,
}

/// Runs the full mGBA flow on `sta`: selects critical paths, fits the
/// weights with `solver`, installs them via [`Sta::set_weights`], and
/// reports before/after accuracy against golden PBA.
///
/// Any previously installed weights are cleared first (the fit is always
/// against original GBA). If the design has no candidate paths (e.g.
/// `only_violating` and nothing violates), the engine is left at original
/// GBA and the report shows zero paths.
pub fn run_mgba(sta: &mut Sta, config: &MgbaConfig, solver: Solver) -> MgbaReport {
    run_mgba_inner(sta, config, solver).0
}

/// Like [`run_mgba`], but also computes the per-endpoint/per-stage
/// accuracy dashboard ([`AccuracyReport`]) from the same per-path slack
/// vectors the summary metrics are built from — no extra PBA retimes.
pub fn run_mgba_with_accuracy(
    sta: &mut Sta,
    config: &MgbaConfig,
    solver: Solver,
) -> (MgbaReport, AccuracyReport) {
    let (report, samples, _) = run_mgba_inner(sta, config, solver);
    let accuracy = AccuracyReport::compute(sta, &report, config, &samples);
    (report, accuracy)
}

/// A calibration that keeps serving as committed edits land.
///
/// [`Calibration::fit`] runs the cold pipeline of [`run_mgba`] and keeps
/// its state; after each committed edit [`Calibration::note_edit`]
/// folds the edit's invalidation cone into the dirty set, and
/// [`Calibration::refit`] patches only the rows it hits and warm-starts
/// the solver from `x*`. The path set is frozen at calibration time: a
/// refit re-times these paths on the edited design rather than
/// re-selecting (a fresh [`Calibration::fit`] is the escape hatch for
/// edits large enough to change criticality).
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Row `i` of `fit` models `paths[i]`.
    paths: Vec<Path>,
    /// Which rows of `fit` read each cell's timing.
    index: RowIndex,
    /// The assembled fit problem, patched in place by refits.
    fit: FitProblem,
    /// The column-space solution `x*` of the most recent solve.
    x: Vec<f64>,
    /// Cumulative solver iterations behind `x`: refits resume the
    /// stochastic solvers' step-decay schedule here, so a near-optimal
    /// start is refined with converged-scale steps instead of being
    /// knocked away by fresh full-size ones.
    step_offset: usize,
    /// Cells invalidated by the edits noted since the last refit,
    /// ascending by index.
    dirty: Vec<CellId>,
}

impl Calibration {
    /// Runs [`run_mgba`] and keeps the state later refits need.
    ///
    /// The calibration is `None` when there was nothing to calibrate (no
    /// candidate paths) or the fit-matrix build was fault-injected away:
    /// a driver must fit cold again on the next change in that case.
    pub fn fit(sta: &mut Sta, config: &MgbaConfig, solver: Solver) -> (MgbaReport, Option<Self>) {
        let (report, _, fitted) = run_mgba_inner(sta, config, solver);
        let calibration = fitted.map(|(paths, fit, x)| Calibration {
            index: RowIndex::build(sta, &paths),
            paths,
            fit,
            x,
            step_offset: report.iterations,
            dirty: Vec::new(),
        });
        (report, calibration)
    }

    /// Folds a committed edit's invalidation cone, [`Sta::last_touched`],
    /// into the dirty set the next [`Self::refit`] patches. Call it right
    /// after each edit: weight installs clear `last_touched`.
    ///
    /// The cone may be captured with weights still applied: the sweep
    /// re-evaluates a superset of the cells whose weight-independent
    /// quantities moved (slews change only at re-characterized seeds,
    /// gate delays only at seeds and their fanout, and clock arrivals are
    /// weight-independent), so the set is conservative for the
    /// zero-weight fit the refit runs.
    pub fn note_edit(&mut self, sta: &Sta) {
        self.dirty.extend_from_slice(sta.last_touched());
        self.dirty.sort_unstable_by_key(|c| c.index());
        self.dirty.dedup();
    }

    /// Incrementally recalibrates after the noted edits: patches only the
    /// fit-problem rows the dirty set invalidates (and empties the set),
    /// warm-starts `solver` from `x*`, and installs the refreshed weights.
    ///
    /// The objective is convex, so the warm solve converges to the same
    /// optimum a cold solve would (within solver tolerance), just in
    /// fewer iterations when the edits were local. The fallback ladder
    /// still judges the warm result against the zero vector, so a
    /// pathological warm start can only demote, never regress below
    /// identity.
    pub fn refit(
        &mut self,
        sta: &mut Sta,
        config: &MgbaConfig,
        solver: Solver,
    ) -> RecalibrateReport {
        let _span = obs::span("recalibrate");
        // The fit always runs against original GBA.
        sta.clear_weights();
        let dirty = std::mem::take(&mut self.dirty);
        let rows = self.rows_reading(&dirty);
        self.fit.patch_rows(sta, &self.paths, &rows);
        obs::counter_add("mgba.recalibrate.warm", 1);
        obs::counter_add("mgba.recalibrate.dirty_rows", rows.len() as u64);
        let mse_before = self.fit.mse(&self.x);
        let (result, fallback) = {
            let _span = obs::span("solve");
            let warm = solver::WarmStart::resumed(&self.x, self.step_offset);
            solver::solve_with_fallback_from(solver, &self.fit, config, Some(warm))
        };
        self.x = result.x;
        self.step_offset = self.step_offset.saturating_add(result.iterations);
        let weights = {
            let _span = obs::span("fold_back");
            self.fit.to_cell_weights(&self.x, sta.netlist().num_cells())
        };
        sta.set_weights(&weights);
        RecalibrateReport {
            dirty_rows: rows.len(),
            total_rows: self.fit.num_paths(),
            iterations: result.iterations,
            rows_touched: result.rows_touched,
            converged: result.converged,
            fallback,
            solver_fault: result.fault,
            mse_before,
            mse_after: self.fit.mse(&self.x),
        }
    }

    /// The calibrated paths; row `i` of the fit models `paths()[i]`.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The rows whose timing reads any of `cells`, ascending. Row `i`
    /// reads the cells of `paths()[i]` and of its launch and capture
    /// clock paths (the CRPR credit reads clock-network gate delays) and
    /// nothing else, so a change confined to other cells leaves its
    /// timing bit-identical.
    pub fn rows_reading(&self, cells: &[CellId]) -> Vec<usize> {
        self.fit.dirty_rows(&self.index, cells)
    }
}

/// Summary of one incremental warm recalibration ([`Calibration::refit`]).
///
/// Deliberately carries no wall-clock field: everything here is a
/// deterministic function of the design and the config, so it is safe to
/// embed in reproducible server responses and bench baselines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecalibrateReport {
    /// Rows whose coefficients/slacks were rebuilt.
    pub dirty_rows: usize,
    /// Total rows in the fit problem.
    pub total_rows: usize,
    /// Solver iterations of the warm solve.
    pub iterations: usize,
    /// Row-gradient evaluations of the warm solve.
    pub rows_touched: u64,
    /// Whether the warm solve reported convergence.
    pub converged: bool,
    /// Which rung of the degradation ladder produced the weights.
    pub fallback: FallbackStage,
    /// Why solver stages were demoted, when any were.
    pub solver_fault: Option<String>,
    /// Fit-space modelling error of the stale `x*` on the patched
    /// problem, before the warm solve.
    pub mse_before: f64,
    /// Fit-space modelling error after the warm solve.
    pub mse_after: f64,
}

/// One fitted path's slack under the three timing views, plus the
/// grouping keys the accuracy dashboard aggregates by.
#[derive(Debug, Clone)]
pub(crate) struct PathSample {
    /// Endpoint cell id of the path.
    pub endpoint: netlist::CellId,
    /// Gates (stages) on the path.
    pub gates: usize,
    /// Original GBA slack.
    pub gba: f64,
    /// Golden PBA slack.
    pub pba: f64,
    /// Corrected (weights-applied) mGBA slack.
    pub mgba: f64,
}

/// The selected paths, the fit problem built over them and its solution.
type Fitted = (Vec<Path>, FitProblem, Vec<f64>);

fn run_mgba_inner(
    sta: &mut Sta,
    config: &MgbaConfig,
    solver: Solver,
) -> (MgbaReport, Vec<PathSample>, Option<Fitted>) {
    let _span = obs::span("mgba");
    sta.clear_weights();
    let selection = {
        let _span = obs::span("select");
        select_paths(
            sta,
            SelectionScheme::PerEndpoint {
                k: config.paths_per_endpoint,
                max_total: config.max_paths,
            },
            config.only_violating,
        )
    };
    obs::counter_add("mgba.paths_selected", selection.paths.len() as u64);
    let design = sta.netlist().name().to_owned();
    // With no candidate paths, or an injected fit-matrix failure, the
    // engine stays at original GBA. The failure degrades to identity
    // weights instead of erroring: this is the "recovery + recorded
    // fallback stage" path of the fault model.
    let fault = if selection.paths.is_empty() {
        None
    } else {
        faultinject::fire("fit.build")
    };
    if selection.paths.is_empty() || fault.is_some() {
        if fault.is_some() {
            obs::counter_add("mgba.fallback.identity", 1);
        }
        let report = MgbaReport {
            design,
            solver_name: solver.paper_name().to_owned(),
            num_paths: selection.paths.len(),
            num_gates: 0,
            coverage: selection.coverage(),
            mse_before: 0.0,
            mse_after: 0.0,
            pass_before: PassRatio {
                passing: 0,
                total: 0,
            },
            pass_after: PassRatio {
                passing: 0,
                total: 0,
            },
            iterations: 0,
            solve_time: Duration::ZERO,
            rows_touched: 0,
            converged: fault.is_none(),
            fallback: match fault {
                Some(_) => FallbackStage::Identity,
                None => FallbackStage::Primary,
            },
            solver_fault: fault.map(|f| format!("failpoint `fit.build`: injected {f:?}")),
            weights: vec![0.0; sta.netlist().num_cells()],
        };
        return (report, Vec::new(), None);
    }
    let par = config.parallelism();
    let fit = FitProblem::build_par(sta, &selection.paths, config.epsilon, config.penalty, par);
    let (result, fallback) = {
        let _span = obs::span("solve");
        solver::solve_with_fallback(solver, &fit, config)
    };
    let weights = {
        let _span = obs::span("fold_back");
        fit.to_cell_weights(&result.x, sta.netlist().num_cells())
    };

    // Before/after accuracy, measured on the actual timing engine (the
    // non-negativity clamp on λ·(1+x) is part of mGBA, so the report
    // reflects it). The per-path retimes fan out over the configured
    // thread count; results are identical for every width.
    let golden: Vec<f64> = {
        let _span = obs::span("evaluate");
        pba_timing_batch(sta, &selection.paths, par)
            .iter()
            .map(|t| t.slack)
            .collect()
    };
    let before: Vec<f64> = selection.paths.iter().map(|p| p.gba_slack).collect();
    {
        let _span = obs::span("fold_back");
        sta.set_weights(&weights);
    }
    let after: Vec<f64> = {
        let _span = obs::span("evaluate");
        gba_path_timing_batch(sta, &selection.paths, par)
            .iter()
            .map(|t| t.slack)
            .collect()
    };

    let report = MgbaReport {
        design,
        solver_name: solver.paper_name().to_owned(),
        num_paths: selection.paths.len(),
        num_gates: fit.num_gates(),
        coverage: selection.coverage(),
        mse_before: metrics::mse(&before, &golden),
        mse_after: metrics::mse(&after, &golden),
        pass_before: PassRatio::compute(&before, &golden),
        pass_after: PassRatio::compute(&after, &golden),
        iterations: result.iterations,
        solve_time: result.elapsed,
        rows_touched: result.rows_touched,
        converged: result.converged,
        fallback,
        solver_fault: result.fault,
        weights,
    };
    obs::counter_add("mgba.fit.gates", report.num_gates as u64);
    obs::gauge_set(
        "mgba.fallback.degraded",
        if report.fallback.is_degraded() {
            1.0
        } else {
            0.0
        },
    );
    obs::gauge_set("mgba.mse_before", report.mse_before);
    obs::gauge_set("mgba.mse_after", report.mse_after);
    obs::gauge_set("mgba.pass_ratio_before", report.pass_before.ratio());
    obs::gauge_set("mgba.pass_ratio_after", report.pass_after.ratio());
    let samples = selection
        .paths
        .iter()
        .zip(before.iter().zip(golden.iter().zip(after.iter())))
        .map(|(p, (&gba, (&pba, &mgba)))| PathSample {
            endpoint: p.endpoint,
            gates: p.num_gates(),
            gba,
            pba,
            mgba,
        })
        .collect();
    (report, samples, Some((selection.paths, fit, result.x)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GeneratorConfig;
    use sta::{gba_path_timing, pba_timing, DerateSet, Sdc};

    /// An engine whose clock period guarantees setup violations.
    fn tight_engine(seed: u64) -> Sta {
        let n = GeneratorConfig::small(seed).generate();
        build_engine_at_fraction(n, 10_000.0, 0.15).unwrap()
    }

    #[test]
    fn mgba_improves_accuracy_end_to_end() {
        let mut sta = tight_engine(111);
        let report = run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
        assert!(report.num_paths > 0, "tight period must yield violations");
        assert!(
            report.mse_after < report.mse_before,
            "mse {} must improve to {}",
            report.mse_before,
            report.mse_after
        );
        assert!(report.pass_after.ratio() >= report.pass_before.ratio());
    }

    #[test]
    fn all_solvers_improve_accuracy() {
        for solver in [Solver::Gd, Solver::Scg, Solver::ScgRs, Solver::Cgnr] {
            let mut sta = tight_engine(112);
            let report = run_mgba(&mut sta, &MgbaConfig::default(), solver);
            assert!(
                report.mse_after < report.mse_before,
                "{solver}: {} !< {}",
                report.mse_after,
                report.mse_before
            );
        }
    }

    #[test]
    fn weights_installed_on_engine() {
        let mut sta = tight_engine(113);
        let report = run_mgba(&mut sta, &MgbaConfig::default(), Solver::Cgnr);
        let nonzero = report.weights.iter().filter(|w| **w != 0.0).count();
        assert!(nonzero > 0);
        // Engine carries the weights.
        let installed = (0..sta.netlist().num_cells())
            .filter(|&i| sta.gate_weight(netlist::CellId::new(i)) != 0.0)
            .count();
        assert_eq!(installed, nonzero);
    }

    #[test]
    fn mgba_never_beats_pba_optimism_by_much() {
        // The constraint/penalty keeps mGBA on the pessimistic side:
        // corrected slack stays at or below (PBA + tolerance) for almost
        // all paths.
        let mut sta = tight_engine(114);
        let config = MgbaConfig::default();
        let report = run_mgba(&mut sta, &config, Solver::Cgnr);
        assert!(report.num_paths > 0);
        let selection = select_paths(
            &sta,
            SelectionScheme::PerEndpoint {
                k: config.paths_per_endpoint,
                max_total: config.max_paths,
            },
            false,
        );
        let mut optimistic = 0usize;
        let mut checked = 0usize;
        for p in &selection.paths {
            let pba = pba_timing(&sta, p).slack;
            let mgba = gba_path_timing(&sta, p).slack;
            // Allow the ε tolerance plus 5ps numeric headroom.
            if mgba > pba + config.epsilon * pba.abs() + 5.0 {
                optimistic += 1;
            }
            checked += 1;
        }
        assert!(
            (optimistic as f64) < 0.05 * checked as f64 + 2.0,
            "{optimistic}/{checked} paths ended up optimistic vs PBA"
        );
    }

    #[test]
    fn no_violations_returns_identity() {
        let n = GeneratorConfig::small(115).generate();
        let mut sta = Sta::new(n, Sdc::with_period(1_000_000.0), DerateSet::standard()).unwrap();
        let report = run_mgba(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
        assert_eq!(report.num_paths, 0);
        assert!(report.weights.iter().all(|w| *w == 0.0));
    }

    /// First combinational gate on a calibrated path that the library can
    /// upsize, with its upsized variant.
    fn resizable_on_paths(sta: &Sta, paths: &[Path]) -> (CellId, netlist::LibCellId) {
        paths
            .iter()
            .flat_map(|p| p.cells.iter())
            .find_map(|&c| {
                let cell = sta.netlist().cell(c);
                if cell.role == netlist::CellRole::Combinational {
                    sta.netlist()
                        .library()
                        .upsized(cell.lib_cell)
                        .map(|up| (c, up))
                } else {
                    None
                }
            })
            .expect("a resizable fitted gate exists")
    }

    #[test]
    fn warm_recalibration_tracks_a_cold_refit() {
        let mut sta = tight_engine(117);
        let config = MgbaConfig::default();
        let (report, cal) = Calibration::fit(&mut sta, &config, Solver::Cgnr);
        assert!(report.num_paths > 0);
        let mut cal = cal.expect("violating design yields a calibration");

        let (victim, up) = resizable_on_paths(&sta, cal.paths());
        sta.resize_cell(victim, up).unwrap();
        assert!(!sta.last_touched().is_empty());
        cal.note_edit(&sta);

        let re = cal.refit(&mut sta, &config, Solver::Cgnr);
        assert!(re.dirty_rows > 0, "a fitted gate was resized");
        assert!(re.dirty_rows <= re.total_rows);
        assert_eq!(re.total_rows, report.num_paths);
        assert!(
            re.mse_after <= re.mse_before + 1e-12,
            "refit must not regress: {} -> {}",
            re.mse_before,
            re.mse_after
        );
        // Weights are reinstalled on the engine.
        let installed = (0..sta.netlist().num_cells())
            .filter(|&i| sta.gate_weight(CellId::new(i)) != 0.0)
            .count();
        assert!(installed > 0);

        // Cold oracle: rebuild the problem from scratch over the SAME
        // paths on the edited design and solve from zero. The objective
        // is convex, so warm and cold land on the same optimum.
        sta.clear_weights();
        let fresh = FitProblem::build_par(
            &sta,
            cal.paths(),
            config.epsilon,
            config.penalty,
            config.parallelism(),
        );
        let (cold, _) = solve_with_fallback(Solver::Cgnr, &fresh, &config);
        let warm_obj = fresh.objective(&cal.x);
        let slack = cold.objective.abs() * 0.05 + 1e-6;
        assert!(
            (warm_obj - cold.objective).abs() <= slack,
            "warm {} vs cold {} objective",
            warm_obj,
            cold.objective
        );
    }

    #[test]
    fn recalibrate_with_no_dirty_cells_patches_nothing() {
        let mut sta = tight_engine(118);
        let config = MgbaConfig::default();
        let (_, cal) = Calibration::fit(&mut sta, &config, Solver::Cgnr);
        let mut cal = cal.expect("violating design yields a calibration");
        let x_before = cal.x.clone();
        let re = cal.refit(&mut sta, &config, Solver::Cgnr);
        assert_eq!(re.dirty_rows, 0);
        assert!(re.mse_after <= re.mse_before + 1e-12);
        // The problem is unchanged and the warm start already optimal, so
        // the refit stays at (or within tolerance of) the same solution.
        let drift: f64 = cal
            .x
            .iter()
            .zip(&x_before)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(drift <= 1e-6, "no-op refit drifted x by {drift}");
    }

    #[test]
    fn cache_is_absent_when_nothing_was_calibrated() {
        let n = GeneratorConfig::small(119).generate();
        let mut sta = Sta::new(n, Sdc::with_period(1_000_000.0), DerateSet::standard()).unwrap();
        let config = MgbaConfig {
            only_violating: true,
            ..MgbaConfig::default()
        };
        let (report, cal) = Calibration::fit(&mut sta, &config, Solver::Cgnr);
        assert_eq!(report.num_paths, 0);
        assert!(cal.is_none());
    }

    #[test]
    fn warm_refit_is_identical_across_thread_counts() {
        // Calibrate, resize, and warm-refit the same seeded design under
        // two pool widths; every kernel in the chain (batch retimers,
        // fit assembly, solver reductions) is bit-identical at any
        // width, so x* and the installed weights must match exactly.
        let run = |threads: usize| {
            let mut sta = tight_engine(120);
            let config = MgbaConfig {
                threads,
                ..MgbaConfig::default()
            };
            let (_, cal) = Calibration::fit(&mut sta, &config, Solver::ScgRs);
            let mut cal = cal.expect("violating design yields a calibration");
            let (victim, up) = resizable_on_paths(&sta, cal.paths());
            sta.resize_cell(victim, up).unwrap();
            cal.note_edit(&sta);
            let re = cal.refit(&mut sta, &config, Solver::ScgRs);
            assert!(re.dirty_rows > 0);
            let x_bits: Vec<u64> = cal.x.iter().map(|v| v.to_bits()).collect();
            let w_bits: Vec<u64> = (0..sta.netlist().num_cells())
                .map(|i| sta.gate_weight(CellId::new(i)).to_bits())
                .collect();
            (x_bits, w_bits)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn warm_and_cold_reach_the_same_optimum_across_seeds() {
        // The fit objective is convex, so a warm start changes the route
        // to the optimum, never the optimum itself. Check the invariant
        // across several independent designs.
        for seed in [121u64, 122, 123] {
            let mut sta = tight_engine(seed);
            let config = MgbaConfig::default();
            let (_, cal) = Calibration::fit(&mut sta, &config, Solver::Cgnr);
            let mut cal = cal.expect("violating design yields a calibration");
            let (victim, up) = resizable_on_paths(&sta, cal.paths());
            sta.resize_cell(victim, up).unwrap();
            cal.note_edit(&sta);
            cal.refit(&mut sta, &config, Solver::Cgnr);

            sta.clear_weights();
            let fresh = FitProblem::build_par(
                &sta,
                cal.paths(),
                config.epsilon,
                config.penalty,
                config.parallelism(),
            );
            let (cold, _) = solve_with_fallback(Solver::Cgnr, &fresh, &config);
            let warm_obj = fresh.objective(&cal.x);
            let slack = cold.objective.abs() * 0.05 + 1e-6;
            assert!(
                (warm_obj - cold.objective).abs() <= slack,
                "seed {seed}: warm {warm_obj} vs cold {} objective",
                cold.objective
            );
        }
    }

    /// One refit's outcome: `x*`, the weights installed on the engine as
    /// bit patterns, and the report. `Debug` prints every float at its
    /// shortest round-trip form, so equal report strings mean equal bits.
    struct RefitBits {
        x: Vec<u64>,
        weights: Vec<u64>,
        report: String,
    }

    impl RefitBits {
        fn new(x: &[f64], sta: &Sta, report: &RecalibrateReport) -> Self {
            RefitBits {
                x: x.iter().map(|v| v.to_bits()).collect(),
                weights: (0..sta.netlist().num_cells())
                    .map(|i| sta.gate_weight(CellId::new(i)).to_bits())
                    .collect(),
                report: format!("{report:?}"),
            }
        }
    }

    /// Takes a seeded design through ten random committed up/down-sizes
    /// of fitted cells. The calibration notes every edit and refits after
    /// every second one. Beside it, an oracle chain built from the fit's
    /// parts re-derives each refit: `dirty_rows` over the sorted union of
    /// the edits' `last_touched`, `patch_rows`, then a warm solve resumed
    /// at the step offset. Returns (calibration, oracle) per refit.
    fn refits_beside_their_oracle() -> Vec<(RefitBits, RefitBits)> {
        use rand::rngs::StdRng;
        use rand::seq::IndexedRandom;
        use rand::{Rng, SeedableRng};
        let config = MgbaConfig::default();
        let solver = Solver::ScgRs;
        let mut sta = tight_engine(124);
        let (_, cal) = Calibration::fit(&mut sta, &config, solver);
        let mut cal = cal.expect("violating design yields a calibration");
        let (paths, index) = (cal.paths.clone(), cal.index.clone());
        let (mut fit, mut x, mut offset) = (cal.fit.clone(), cal.x.clone(), cal.step_offset);
        let mut union: Vec<CellId> = Vec::new();
        let mut rng = StdRng::seed_from_u64(0xCA1);
        let mut refits = Vec::new();
        for edit in 0..10 {
            let (cell, target) = loop {
                let c = *fit.columns().choose(&mut rng).expect("fitted cells");
                let lib = sta.netlist().library();
                let current = sta.netlist().cell(c).lib_cell;
                let target = if rng.random_bool(0.5) {
                    lib.upsized(current)
                } else {
                    lib.downsized(current)
                };
                if let Some(t) = target {
                    break (c, t);
                }
            };
            sta.resize_cell(cell, target).unwrap();
            cal.note_edit(&sta);
            union.extend_from_slice(sta.last_touched());
            if edit % 2 == 0 {
                continue;
            }
            let mut twin = sta.clone();
            let re = cal.refit(&mut sta, &config, solver);
            let refit = RefitBits::new(&cal.x, &sta, &re);

            twin.clear_weights();
            union.sort_unstable_by_key(|c| c.index());
            union.dedup();
            let rows = fit.dirty_rows(&index, &union);
            union.clear();
            fit.patch_rows(&twin, &paths, &rows);
            let mse_before = fit.mse(&x);
            let warm = WarmStart::resumed(&x, offset);
            let (result, fallback) = solve_with_fallback_from(solver, &fit, &config, Some(warm));
            x = result.x;
            offset += result.iterations;
            twin.set_weights(&fit.to_cell_weights(&x, twin.netlist().num_cells()));
            let oracle = RecalibrateReport {
                dirty_rows: rows.len(),
                total_rows: fit.num_paths(),
                iterations: result.iterations,
                rows_touched: result.rows_touched,
                converged: result.converged,
                fallback,
                solver_fault: result.fault,
                mse_before,
                mse_after: fit.mse(&x),
            };
            refits.push((refit, RefitBits::new(&x, &twin, &oracle)));
        }
        assert_eq!(refits.len(), 5, "a refit after every second edit");
        refits
    }

    #[test]
    fn calibration_refits_reach_the_oracle_solution() {
        for (k, (cal, oracle)) in refits_beside_their_oracle().iter().enumerate() {
            assert!(cal.x == oracle.x, "refit {k}: x* differs from the oracle's");
        }
    }

    #[test]
    fn calibration_refits_install_the_oracle_weights() {
        for (k, (cal, oracle)) in refits_beside_their_oracle().iter().enumerate() {
            assert!(
                cal.weights == oracle.weights,
                "refit {k}: installed weights differ from the oracle's"
            );
        }
    }

    #[test]
    fn calibration_refits_report_what_the_oracle_reports() {
        for (k, (cal, oracle)) in refits_beside_their_oracle().iter().enumerate() {
            assert_eq!(cal.report, oracle.report, "refit {k}: reports differ");
        }
    }

    #[test]
    fn report_fields_are_consistent() {
        let mut sta = tight_engine(116);
        let report = run_mgba(&mut sta, &MgbaConfig::default(), Solver::Scg);
        assert_eq!(report.pass_before.total, report.num_paths);
        assert_eq!(report.pass_after.total, report.num_paths);
        assert!(report.coverage > 0.0 && report.coverage <= 1.0);
        assert_eq!(report.weights.len(), sta.netlist().num_cells());
        assert_eq!(report.solver_name, "SCG + w/o RS");
    }
}
