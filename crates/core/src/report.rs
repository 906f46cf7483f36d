//! QoR accuracy dashboard: how much pessimism mGBA removed, and how
//! close it came to the no-optimism constraint — per endpoint, per path
//! depth, and globally, as one machine-readable JSON document.
//!
//! [`MgbaReport`] answers "did the fit converge and improve MSE";
//! this report answers the QoR questions a timing signoff review asks:
//!
//! - **Accuracy**: mean/max `|s − s_pba|` for original GBA and for
//!   mGBA, overall and broken down by endpoint and by path depth
//!   (deeper paths accumulate more derate pessimism, so depth is where
//!   the paper's win should concentrate).
//! - **Divergence**: WNS/TNS over the fitted path set under each of the
//!   three views (GBA / golden PBA / mGBA) — how far apart the
//!   summaries a designer actually reads are.
//! - **Constraint**: the worst signed margin of
//!   `s_mgba − (s_pba + ε·|s_pba|)` (Eq. 7's tolerance); positive means
//!   a path ended up optimistic beyond the allowed band.
//! - **Sparsity**: how many cells carry a non-zero weight — the
//!   dashboard's proxy for how local the correction is.
//!
//! # JSON schema (version 1)
//!
//! ```text
//! {
//!   "version": 1, "design": str, "solver": str,
//!   "fallback_stage": str, "paths": u64, "epsilon": f64,
//!   "mse": {"before": f64, "after": f64},
//!   "abs_err_before": {"mean": f64, "max": f64},
//!   "abs_err_after":  {"mean": f64, "max": f64},
//!   "wns": {"gba": f64, "pba": f64, "mgba": f64},
//!   "tns": {"gba": f64, "pba": f64, "mgba": f64},
//!   "constraint": {"worst_margin": f64, "optimistic_paths": u64},
//!   "weights": {"cells": u64, "nonzero": u64, "sparsity_pct": f64},
//!   "endpoints": [{"endpoint": str, "paths": u64,
//!                  "gba": f64, "pba": f64, "mgba": f64,
//!                  "mean_abs_err_before": f64, "mean_abs_err_after": f64,
//!                  "max_abs_err_after": f64}],
//!   "stages": [{"gates": u64, "paths": u64,
//!               "mean_abs_err_before": f64, "mean_abs_err_after": f64,
//!               "max_abs_err_after": f64}]
//! }
//! ```
//!
//! Empty selections (nothing violating) produce a structurally complete
//! document with zero paths and empty breakdown arrays. Non-finite
//! floats serialize as `null`. Ordering is deterministic: endpoints
//! worst-PBA-slack first (name-tiebroken), stages by ascending depth.

use crate::{MgbaConfig, MgbaReport, PathSample};
use obs::json::JsonWriter;
use sta::Sta;
use std::collections::BTreeMap;

/// Schema version of [`AccuracyReport::to_json`].
pub const ACCURACY_SCHEMA_VERSION: u64 = 1;

/// Accuracy rollup for one endpoint's fitted paths.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointAccuracy {
    /// Endpoint cell name.
    pub endpoint: String,
    /// Fitted paths terminating here.
    pub paths: usize,
    /// Worst original GBA slack among them.
    pub gba: f64,
    /// Worst golden PBA slack among them.
    pub pba: f64,
    /// Worst corrected mGBA slack among them.
    pub mgba: f64,
    /// Mean `|s_gba − s_pba|` over this endpoint's paths.
    pub mean_abs_err_before: f64,
    /// Mean `|s_mgba − s_pba|` over this endpoint's paths.
    pub mean_abs_err_after: f64,
    /// Max `|s_mgba − s_pba|` over this endpoint's paths.
    pub max_abs_err_after: f64,
}

/// Accuracy rollup for every fitted path of one depth (gate count).
#[derive(Debug, Clone, PartialEq)]
pub struct StageAccuracy {
    /// Gates (stages) on each path in this group.
    pub gates: usize,
    /// Paths of this depth.
    pub paths: usize,
    /// Mean `|s_gba − s_pba|`.
    pub mean_abs_err_before: f64,
    /// Mean `|s_mgba − s_pba|`.
    pub mean_abs_err_after: f64,
    /// Max `|s_mgba − s_pba|`.
    pub max_abs_err_after: f64,
}

/// The full dashboard; see the module docs for the field semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Design name.
    pub design: String,
    /// Solver used for the fit.
    pub solver: String,
    /// Degradation-ladder rung that produced the weights
    /// ([`crate::FallbackStage::name`]; `"primary"` on a healthy run,
    /// `"identity"` when the calibration degraded to raw GBA).
    pub fallback_stage: String,
    /// Fitted paths.
    pub paths: usize,
    /// Eq. 7 relative tolerance the fit was run with.
    pub epsilon: f64,
    /// Modelling MSE before (original GBA vs PBA).
    pub mse_before: f64,
    /// Modelling MSE after (mGBA vs PBA).
    pub mse_after: f64,
    /// Mean `|s_gba − s_pba|` over all fitted paths.
    pub mean_abs_err_before: f64,
    /// Max `|s_gba − s_pba|`.
    pub max_abs_err_before: f64,
    /// Mean `|s_mgba − s_pba|`.
    pub mean_abs_err_after: f64,
    /// Max `|s_mgba − s_pba|`.
    pub max_abs_err_after: f64,
    /// WNS over the fitted set: (GBA, PBA, mGBA).
    pub wns: (f64, f64, f64),
    /// TNS over the fitted set (per-endpoint worst slacks, negatives
    /// summed): (GBA, PBA, mGBA).
    pub tns: (f64, f64, f64),
    /// Worst signed margin `s_mgba − (s_pba + ε·|s_pba|)`; positive
    /// means at least one path is optimistic beyond the tolerance.
    pub worst_constraint_margin: f64,
    /// Paths whose margin is positive.
    pub optimistic_paths: usize,
    /// Total netlist cells (weight vector length).
    pub cells: usize,
    /// Cells carrying a non-zero weight.
    pub nonzero_weights: usize,
    /// Per-endpoint breakdown, worst PBA slack first.
    pub endpoints: Vec<EndpointAccuracy>,
    /// Per-depth breakdown, ascending gate count.
    pub stages: Vec<StageAccuracy>,
}

fn mean(xs: impl Iterator<Item = f64>, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        xs.sum::<f64>() / n as f64
    }
}

fn fold_min(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::INFINITY, f64::min)
}

impl AccuracyReport {
    /// Percentage of cells with a zero weight (100 = no correction
    /// anywhere, low = corrections smeared across the design).
    pub fn sparsity_pct(&self) -> f64 {
        if self.cells == 0 {
            100.0
        } else {
            100.0 * (self.cells - self.nonzero_weights) as f64 / self.cells as f64
        }
    }

    /// Builds the dashboard from the per-path samples `run_mgba`
    /// already measured.
    pub(crate) fn compute(
        sta: &Sta,
        report: &MgbaReport,
        config: &MgbaConfig,
        samples: &[PathSample],
    ) -> Self {
        let n = samples.len();
        let err_b = |s: &PathSample| (s.gba - s.pba).abs();
        let err_a = |s: &PathSample| (s.mgba - s.pba).abs();
        let margin = |s: &PathSample| s.mgba - (s.pba + config.epsilon * s.pba.abs());

        // Per-endpoint rollup (worst slack per view + error stats).
        let mut by_endpoint: BTreeMap<String, Vec<&PathSample>> = BTreeMap::new();
        for s in samples {
            let name = sta.netlist().cell(s.endpoint).name.clone();
            by_endpoint.entry(name).or_default().push(s);
        }
        let mut endpoints: Vec<EndpointAccuracy> = by_endpoint
            .into_iter()
            .map(|(endpoint, ps)| {
                let k = ps.len();
                EndpointAccuracy {
                    endpoint,
                    paths: k,
                    gba: fold_min(ps.iter().map(|s| s.gba)),
                    pba: fold_min(ps.iter().map(|s| s.pba)),
                    mgba: fold_min(ps.iter().map(|s| s.mgba)),
                    mean_abs_err_before: mean(ps.iter().map(|s| err_b(s)), k),
                    mean_abs_err_after: mean(ps.iter().map(|s| err_a(s)), k),
                    max_abs_err_after: ps.iter().map(|s| err_a(s)).fold(0.0, f64::max),
                }
            })
            .collect();
        endpoints.sort_by(|a, b| a.pba.total_cmp(&b.pba).then(a.endpoint.cmp(&b.endpoint)));

        // WNS/TNS per view from the endpoint rollup (TNS sums each
        // endpoint's worst slack when negative, the usual convention).
        let wns = (
            fold_min(endpoints.iter().map(|e| e.gba)).min(0.0),
            fold_min(endpoints.iter().map(|e| e.pba)).min(0.0),
            fold_min(endpoints.iter().map(|e| e.mgba)).min(0.0),
        );
        let tns_of = |slack: fn(&EndpointAccuracy) -> f64, es: &[EndpointAccuracy]| {
            es.iter().map(slack).filter(|s| *s < 0.0).sum::<f64>()
        };
        let tns = (
            tns_of(|e| e.gba, &endpoints),
            tns_of(|e| e.pba, &endpoints),
            tns_of(|e| e.mgba, &endpoints),
        );

        // Per-depth rollup.
        let mut by_depth: BTreeMap<usize, Vec<&PathSample>> = BTreeMap::new();
        for s in samples {
            by_depth.entry(s.gates).or_default().push(s);
        }
        let stages: Vec<StageAccuracy> = by_depth
            .into_iter()
            .map(|(gates, ps)| {
                let k = ps.len();
                StageAccuracy {
                    gates,
                    paths: k,
                    mean_abs_err_before: mean(ps.iter().map(|s| err_b(s)), k),
                    mean_abs_err_after: mean(ps.iter().map(|s| err_a(s)), k),
                    max_abs_err_after: ps.iter().map(|s| err_a(s)).fold(0.0, f64::max),
                }
            })
            .collect();

        let nonzero_weights = report.weights.iter().filter(|w| **w != 0.0).count();
        Self {
            design: report.design.clone(),
            solver: report.solver_name.clone(),
            fallback_stage: report.fallback.name().to_owned(),
            paths: n,
            epsilon: config.epsilon,
            mse_before: report.mse_before,
            mse_after: report.mse_after,
            mean_abs_err_before: mean(samples.iter().map(err_b), n),
            max_abs_err_before: samples.iter().map(err_b).fold(0.0, f64::max),
            mean_abs_err_after: mean(samples.iter().map(err_a), n),
            max_abs_err_after: samples.iter().map(err_a).fold(0.0, f64::max),
            wns,
            tns,
            worst_constraint_margin: samples.iter().map(margin).fold(f64::NEG_INFINITY, f64::max),
            optimistic_paths: samples.iter().filter(|s| margin(s) > 0.0).count(),
            cells: report.weights.len(),
            nonzero_weights,
            endpoints,
            stages,
        }
    }

    /// Renders the version-1 JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("version");
        w.u64(ACCURACY_SCHEMA_VERSION);
        w.key("design");
        w.str(&self.design);
        w.key("solver");
        w.str(&self.solver);
        w.key("fallback_stage");
        w.str(&self.fallback_stage);
        w.key("paths");
        w.u64(self.paths as u64);
        w.key("epsilon");
        w.f64(self.epsilon);
        w.key("mse");
        w.begin_obj();
        w.key("before");
        w.f64(self.mse_before);
        w.key("after");
        w.f64(self.mse_after);
        w.end_obj();
        let err_pair = |w: &mut JsonWriter, mean: f64, max: f64| {
            w.begin_obj();
            w.key("mean");
            w.f64(mean);
            w.key("max");
            w.f64(max);
            w.end_obj();
        };
        w.key("abs_err_before");
        err_pair(&mut w, self.mean_abs_err_before, self.max_abs_err_before);
        w.key("abs_err_after");
        err_pair(&mut w, self.mean_abs_err_after, self.max_abs_err_after);
        let triple = |w: &mut JsonWriter, (gba, pba, mgba): (f64, f64, f64)| {
            w.begin_obj();
            w.key("gba");
            w.f64(gba);
            w.key("pba");
            w.f64(pba);
            w.key("mgba");
            w.f64(mgba);
            w.end_obj();
        };
        w.key("wns");
        triple(&mut w, self.wns);
        w.key("tns");
        triple(&mut w, self.tns);
        w.key("constraint");
        w.begin_obj();
        w.key("worst_margin");
        w.f64(self.worst_constraint_margin);
        w.key("optimistic_paths");
        w.u64(self.optimistic_paths as u64);
        w.end_obj();
        w.key("weights");
        w.begin_obj();
        w.key("cells");
        w.u64(self.cells as u64);
        w.key("nonzero");
        w.u64(self.nonzero_weights as u64);
        w.key("sparsity_pct");
        w.f64(self.sparsity_pct());
        w.end_obj();
        w.key("endpoints");
        w.begin_arr();
        for e in &self.endpoints {
            w.begin_obj();
            w.key("endpoint");
            w.str(&e.endpoint);
            w.key("paths");
            w.u64(e.paths as u64);
            w.key("gba");
            w.f64(e.gba);
            w.key("pba");
            w.f64(e.pba);
            w.key("mgba");
            w.f64(e.mgba);
            w.key("mean_abs_err_before");
            w.f64(e.mean_abs_err_before);
            w.key("mean_abs_err_after");
            w.f64(e.mean_abs_err_after);
            w.key("max_abs_err_after");
            w.f64(e.max_abs_err_after);
            w.end_obj();
        }
        w.end_arr();
        w.key("stages");
        w.begin_arr();
        for s in &self.stages {
            w.begin_obj();
            w.key("gates");
            w.u64(s.gates as u64);
            w.key("paths");
            w.u64(s.paths as u64);
            w.key("mean_abs_err_before");
            w.f64(s.mean_abs_err_before);
            w.key("mean_abs_err_after");
            w.f64(s.mean_abs_err_after);
            w.key("max_abs_err_after");
            w.f64(s.max_abs_err_after);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_mgba, run_mgba_with_accuracy, Solver};
    use netlist::GeneratorConfig;
    use sta::{DerateSet, Sdc};

    fn tight_engine(seed: u64) -> Sta {
        let n = GeneratorConfig::small(seed).generate();
        crate::build_engine_at_fraction(n, 10_000.0, 0.15).unwrap()
    }

    #[test]
    fn dashboard_reflects_the_fit() {
        let mut sta = tight_engine(211);
        let (report, acc) = run_mgba_with_accuracy(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
        assert!(acc.paths > 0);
        assert_eq!(acc.paths, report.num_paths);
        assert_eq!(acc.design, report.design);
        // The fit's whole point: corrected error below original error.
        assert!(acc.mean_abs_err_after < acc.mean_abs_err_before);
        // mGBA sits between pessimistic GBA and golden PBA on WNS.
        assert!(acc.wns.0 <= acc.wns.2 + 1e-9, "{:?}", acc.wns);
        assert!(acc.tns.0 <= acc.tns.2 + 1e-9, "{:?}", acc.tns);
        // Breakdowns cover every path exactly once.
        assert_eq!(
            acc.endpoints.iter().map(|e| e.paths).sum::<usize>(),
            acc.paths
        );
        assert_eq!(acc.stages.iter().map(|s| s.paths).sum::<usize>(), acc.paths);
        // Endpoints sorted worst PBA first; stages by ascending depth.
        assert!(acc.endpoints.windows(2).all(|w| w[0].pba <= w[1].pba));
        assert!(acc.stages.windows(2).all(|w| w[0].gates < w[1].gates));
        assert!(acc.nonzero_weights > 0 && acc.nonzero_weights <= acc.cells);
        assert!((0.0..=100.0).contains(&acc.sparsity_pct()));
    }

    #[test]
    fn with_accuracy_matches_plain_run() {
        // The accuracy variant must not perturb the fit itself.
        let mut a = tight_engine(212);
        let plain = run_mgba(&mut a, &MgbaConfig::default(), Solver::Cgnr);
        let mut b = tight_engine(212);
        let (with, _) = run_mgba_with_accuracy(&mut b, &MgbaConfig::default(), Solver::Cgnr);
        assert_eq!(plain.weights, with.weights);
        assert_eq!(plain.iterations, with.iterations);
        assert_eq!(plain.mse_after.to_bits(), with.mse_after.to_bits());
    }

    #[test]
    fn json_document_is_complete() {
        let mut sta = tight_engine(213);
        let (_, acc) = run_mgba_with_accuracy(&mut sta, &MgbaConfig::default(), Solver::Scg);
        let json = acc.to_json();
        assert!(json.starts_with("{\"version\":1,"));
        assert!(json.contains("\"fallback_stage\":\"primary\""), "{json}");
        for key in [
            "\"mse\":{",
            "\"abs_err_before\":{",
            "\"abs_err_after\":{",
            "\"wns\":{",
            "\"tns\":{",
            "\"constraint\":{",
            "\"weights\":{",
            "\"endpoints\":[",
            "\"stages\":[",
            "\"sparsity_pct\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_selection_yields_empty_dashboard() {
        let n = GeneratorConfig::small(214).generate();
        let mut sta = Sta::new(n, Sdc::with_period(1_000_000.0), DerateSet::standard()).unwrap();
        let (report, acc) = run_mgba_with_accuracy(&mut sta, &MgbaConfig::default(), Solver::ScgRs);
        assert_eq!(report.num_paths, 0);
        assert_eq!(acc.paths, 0);
        assert!(acc.endpoints.is_empty() && acc.stages.is_empty());
        assert_eq!(acc.optimistic_paths, 0);
        assert_eq!(acc.sparsity_pct(), 100.0);
        // Still a structurally complete document.
        let json = acc.to_json();
        assert!(json.contains("\"endpoints\":[]"));
        assert!(json.contains("\"stages\":[]"));
    }
}
