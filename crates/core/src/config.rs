//! Configuration of the mGBA fitting flow, with the paper's defaults.

use parallel::Parallelism;
use serde::{Deserialize, Serialize};

/// All tunables of the mGBA flow. `Default` reproduces the paper's
/// reported settings (§3.2, §3.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MgbaConfig {
    /// Critical paths kept per endpoint (`k'` in §3.2; paper: 20).
    pub paths_per_endpoint: usize,
    /// Cap on the total number of selected paths (`m'`; paper: 5·10⁶ —
    /// scaled here with the designs).
    pub max_paths: usize,
    /// Keep only timing-violated (negative GBA slack) paths, as the
    /// implementation flow does. Disable to fit all critical paths.
    pub only_violating: bool,
    /// Constraint tolerance `ε` of Eq. (5): the fitted slack may exceed
    /// the PBA slack by at most `ε·|s_pba|`.
    pub epsilon: f64,
    /// Penalty weight `w` of Eq. (6) on constraint violations.
    pub penalty: f64,
    /// Initial row-selection ratio `r₀` of Algorithm 1 (paper: 10⁻⁵,
    /// scaled up here because our matrices are smaller).
    pub initial_row_ratio: f64,
    /// Outer convergence tolerance `ε_u` of Algorithm 1 (paper: 0.1).
    pub outer_tolerance: f64,
    /// Fraction of rows sampled per stochastic gradient step (`k''`;
    /// paper: 2% of the reduced system).
    pub row_fraction: f64,
    /// Inner convergence tolerance `ε_c` of Algorithm 2 (paper: 10⁻³).
    pub inner_tolerance: f64,
    /// Base step size `s` of Algorithm 2 (paper: 0.02).
    pub step_size: f64,
    /// Hyperbolic step decay rate: the effective step at iteration `k` is
    /// `s / (1 + decay·k)`. The paper's "carefully dynamic step-size
    /// control" (paper ref \[15\]) requires a decaying schedule for convergence.
    pub step_decay: f64,
    /// Iterations between convergence checks (the relative-change test of
    /// Algorithms 1–2 is applied over this window to de-noise stochastic
    /// steps).
    pub check_window: usize,
    /// Hard iteration cap per solve.
    pub max_iterations: usize,
    /// RNG seed for row sampling.
    pub seed: u64,
    /// Worker threads for the batch PBA, matrix-assembly, and full-matrix
    /// solver kernels. `0` defers to the process default (CLI
    /// `--threads`, then `MGBA_THREADS`, then all cores); `1` is the
    /// exact serial path. Results are bit-identical for every value.
    pub threads: usize,
    /// Wall-clock budget per solver stage in milliseconds; `0` disables
    /// the deadline (the default, keeping default runs fully
    /// deterministic). When exceeded the guard aborts the stage and the
    /// fallback ladder demotes it.
    pub solver_timeout_ms: u64,
    /// Divergence guard: a windowed objective estimate exceeding
    /// `divergence_factor ×` the starting objective aborts the stage
    /// (the objective of a normalized-step descent must never grow past
    /// its starting point by orders of magnitude).
    pub divergence_factor: f64,
    /// Divergence guard: this many *consecutive* windows with a growing
    /// objective abort the stage.
    pub divergence_streak: usize,
    /// Staged solver fallback (requested solver → CGNR → GD → identity
    /// weights). When `false` a failed solve skips the intermediate
    /// stages and drops straight to identity weights (x = 0, raw GBA) —
    /// an unusable iterate is never returned either way.
    pub fallback: bool,
}

impl Default for MgbaConfig {
    fn default() -> Self {
        Self {
            paths_per_endpoint: 20,
            max_paths: 5_000_000,
            only_violating: true,
            epsilon: 0.02,
            penalty: 4.0,
            initial_row_ratio: 1e-2,
            outer_tolerance: 0.1,
            row_fraction: 0.02,
            inner_tolerance: 1e-3,
            step_size: 0.02,
            step_decay: 8e-3,
            check_window: 25,
            max_iterations: 20_000,
            seed: 0xD5A1,
            threads: 0,
            solver_timeout_ms: 0,
            divergence_factor: 1e3,
            divergence_streak: 4,
            fallback: true,
        }
    }
}

impl MgbaConfig {
    /// Config with an explicit thread count (`0` = process default,
    /// `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The resolved [`Parallelism`] for this run.
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::new(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MgbaConfig::default();
        assert_eq!(c.paths_per_endpoint, 20);
        assert_eq!(c.max_paths, 5_000_000);
        assert_eq!(c.row_fraction, 0.02);
        assert_eq!(c.inner_tolerance, 1e-3);
        assert_eq!(c.step_size, 0.02);
        assert_eq!(c.outer_tolerance, 0.1);
    }

    #[test]
    fn guard_defaults_are_inert_and_settable() {
        let c = MgbaConfig::default();
        assert_eq!(c.solver_timeout_ms, 0, "no deadline by default");
        assert!(c.fallback);
        let c = MgbaConfig {
            solver_timeout_ms: 250,
            divergence_factor: 50.0,
            divergence_streak: 2,
            fallback: false,
            ..MgbaConfig::default()
        };
        assert_eq!(c.solver_timeout_ms, 250);
        assert_eq!(c.divergence_factor, 50.0);
        assert_eq!(c.divergence_streak, 2);
        assert!(!c.fallback);
    }

    #[test]
    fn threads_resolve_to_parallelism() {
        assert_eq!(MgbaConfig::default().threads, 0);
        let c = MgbaConfig::default().with_threads(3);
        assert_eq!(c.parallelism().threads(), 3);
        assert!(MgbaConfig::default().parallelism().threads() >= 1);
    }
}
