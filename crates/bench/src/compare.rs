//! Regression comparator for `BENCH_PR.json` reports: joins a current
//! report against the committed baseline scenario-by-scenario and lists
//! every threshold violation. The `bench_compare` binary maps a
//! non-empty violation list to a nonzero exit status, which is what the
//! CI `bench-gate` job keys on.
//!
//! Two metric classes, two disciplines:
//!
//! - **Machine facts** (`wall_ms`, `peak_rss_kb`) are noisy, so they get
//!   multiplicative headroom plus an absolute floor that keeps
//!   millisecond-scale scenarios from tripping on scheduler jitter.
//! - **QoR metrics** are deterministic; any drift beyond a tight
//!   relative tolerance means the fit changed and the baseline must be
//!   regenerated deliberately (with the change explained in the PR).

use crate::harness::ScenarioResult;
use server::json::{parse, Value};

/// Gate thresholds; [`Thresholds::default`] matches the CI defaults
/// except for the wall factor, which CI widens on shared runners.
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Current wall time may be at most `baseline * wall_factor +
    /// wall_floor_ms`.
    pub wall_factor: f64,
    /// Absolute wall-time headroom (ms) added on top of the factor.
    pub wall_floor_ms: f64,
    /// Current peak RSS may be at most `baseline * rss_factor +
    /// rss_floor_kb`.
    pub rss_factor: f64,
    /// Absolute RSS headroom (kB) added on top of the factor.
    pub rss_floor_kb: f64,
    /// Relative tolerance for QoR metrics: `|cur - base|` must stay
    /// within `qor_rel_tol * max(|base|, 1e-12)`.
    pub qor_rel_tol: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            wall_factor: 1.75,
            wall_floor_ms: 5.0,
            rss_factor: 1.5,
            rss_floor_kb: 16_384.0,
            qor_rel_tol: 1e-2,
        }
    }
}

/// One threshold breach.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Scenario the breach occurred in.
    pub scenario: String,
    /// Metric name (`wall_ms`, `peak_rss_kb`, or a QoR key).
    pub metric: String,
    /// Baseline value (0 when the metric is simply missing).
    pub baseline: f64,
    /// Current value (0 when the scenario/metric is missing).
    pub current: f64,
    /// Human-readable explanation.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: {} (baseline {:.4}, current {:.4})",
            self.scenario, self.metric, self.detail, self.baseline, self.current
        )
    }
}

/// A parsed `BENCH_PR.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Commit sha recorded by the producing run.
    pub commit: String,
    /// Thread-pool width of the producing run.
    pub threads: u64,
    /// Scenarios in file order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    fn scenario(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// Parses a version-1 report document.
///
/// # Errors
///
/// Returns a description of the first structural problem (bad JSON,
/// wrong version, missing fields).
pub fn parse_report(text: &str) -> Result<BenchReport, String> {
    let v = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = v
        .get("version")
        .and_then(Value::as_u64)
        .ok_or("missing `version`")?;
    if version != crate::harness::BENCH_SCHEMA_VERSION {
        return Err(format!("unsupported report version {version}"));
    }
    let commit = v
        .get("commit")
        .and_then(Value::as_str)
        .ok_or("missing `commit`")?
        .to_owned();
    let threads = v
        .get("threads")
        .and_then(Value::as_u64)
        .ok_or("missing `threads`")?;
    let Some(Value::Arr(entries)) = v.get("scenarios") else {
        return Err("missing `scenarios` array".into());
    };
    let mut scenarios = Vec::with_capacity(entries.len());
    for e in entries {
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or("scenario missing `name`")?
            .to_owned();
        let wall_ms = e
            .get("wall_ms")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("scenario `{name}` missing `wall_ms`"))?;
        let peak_rss_kb = e
            .get("peak_rss_kb")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("scenario `{name}` missing `peak_rss_kb`"))?;
        let Some(Value::Obj(qor_obj)) = e.get("qor") else {
            return Err(format!("scenario `{name}` missing `qor` object"));
        };
        let mut qor = Vec::with_capacity(qor_obj.len());
        for (k, val) in qor_obj {
            let num = val
                .as_f64()
                .ok_or_else(|| format!("scenario `{name}` qor `{k}` is not a number"))?;
            qor.push((k.clone(), num));
        }
        scenarios.push(ScenarioResult {
            name,
            wall_ms,
            peak_rss_kb,
            qor,
        });
    }
    Ok(BenchReport {
        commit,
        threads,
        scenarios,
    })
}

/// Compares `current` against `baseline`, returning every violation
/// (empty means the gate passes). Scenarios present only in `current`
/// are new coverage and never violations; scenarios missing from
/// `current` are. A run at another thread count than the baseline's is
/// a violation too: its wall times measure a different configuration.
pub fn compare(baseline: &BenchReport, current: &BenchReport, th: &Thresholds) -> Vec<Violation> {
    let mut out = Vec::new();
    if current.threads != baseline.threads {
        out.push(Violation {
            scenario: "report".into(),
            metric: "threads".into(),
            baseline: baseline.threads as f64,
            current: current.threads as f64,
            detail: "thread count differs from the baseline's (set MGBA_THREADS to match)".into(),
        });
    }
    for base in &baseline.scenarios {
        let Some(cur) = current.scenario(&base.name) else {
            out.push(Violation {
                scenario: base.name.clone(),
                metric: "scenario".into(),
                baseline: 1.0,
                current: 0.0,
                detail: "scenario missing from current report".into(),
            });
            continue;
        };
        let wall_allowed = base.wall_ms * th.wall_factor + th.wall_floor_ms;
        if cur.wall_ms > wall_allowed {
            out.push(Violation {
                scenario: base.name.clone(),
                metric: "wall_ms".into(),
                baseline: base.wall_ms,
                current: cur.wall_ms,
                detail: format!("wall time exceeds allowed {wall_allowed:.2} ms"),
            });
        }
        if base.peak_rss_kb > 0 && cur.peak_rss_kb > 0 {
            let rss_allowed = base.peak_rss_kb as f64 * th.rss_factor + th.rss_floor_kb;
            if cur.peak_rss_kb as f64 > rss_allowed {
                out.push(Violation {
                    scenario: base.name.clone(),
                    metric: "peak_rss_kb".into(),
                    baseline: base.peak_rss_kb as f64,
                    current: cur.peak_rss_kb as f64,
                    detail: format!("peak RSS exceeds allowed {rss_allowed:.0} kB"),
                });
            }
        }
        for (key, base_val) in &base.qor {
            // `wall_`- and `read_qps_`-prefixed QoR keys are
            // wall-clock-derived machine facts a scenario wants in its
            // report (per-leg timings, the warm-vs-cold speedup, the
            // saturation throughputs). They are too noisy for the drift
            // gate; CI pins them with explicit `--require-min` floors
            // instead.
            if key.starts_with("wall_") || key.starts_with("read_qps_") {
                continue;
            }
            let Some((_, cur_val)) = cur.qor.iter().find(|(k, _)| k == key) else {
                out.push(Violation {
                    scenario: base.name.clone(),
                    metric: key.clone(),
                    baseline: *base_val,
                    current: 0.0,
                    detail: "QoR metric missing from current report".into(),
                });
                continue;
            };
            let tol = th.qor_rel_tol * base_val.abs().max(1e-12);
            if (cur_val - base_val).abs() > tol {
                out.push(Violation {
                    scenario: base.name.clone(),
                    metric: key.clone(),
                    baseline: *base_val,
                    current: *cur_val,
                    detail: format!(
                        "QoR drifted beyond ±{:.3}% of baseline",
                        th.qor_rel_tol * 100.0
                    ),
                });
            }
        }
    }
    out
}

/// An absolute floor on a current-report metric, from a
/// `--require-min SCENARIO:KEY:MIN` flag. Unlike the baseline diff,
/// floors judge the current report alone — they express requirements
/// ("warm refits must not be slower than cold") rather than drift.
#[derive(Debug, Clone, PartialEq)]
pub struct Minimum {
    /// Scenario the floor applies to.
    pub scenario: String,
    /// QoR key inside that scenario (`wall_`-prefixed keys allowed —
    /// that is the main use).
    pub metric: String,
    /// Smallest acceptable value, inclusive.
    pub min: f64,
}

/// Parses a `SCENARIO:KEY:MIN` spec.
///
/// # Errors
///
/// Returns a description when the spec does not split into three
/// `:`-separated fields or the minimum is not a number.
pub fn parse_minimum(spec: &str) -> Result<Minimum, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [scenario, metric, min] = parts.as_slice() else {
        return Err(format!("`{spec}` is not SCENARIO:KEY:MIN"));
    };
    let min: f64 = min
        .parse()
        .map_err(|_| format!("`{min}` in `{spec}` is not a number"))?;
    if scenario.is_empty() || metric.is_empty() {
        return Err(format!("`{spec}` has an empty scenario or key"));
    }
    Ok(Minimum {
        scenario: (*scenario).to_owned(),
        metric: (*metric).to_owned(),
        min,
    })
}

/// Checks `--require-min` floors against `current`. A missing scenario
/// or metric is itself a violation: a floor that silently stops being
/// measured is a gate that silently stops gating.
pub fn check_minimums(current: &BenchReport, minimums: &[Minimum]) -> Vec<Violation> {
    let mut out = Vec::new();
    for m in minimums {
        let Some(s) = current.scenario(&m.scenario) else {
            out.push(Violation {
                scenario: m.scenario.clone(),
                metric: m.metric.clone(),
                baseline: m.min,
                current: 0.0,
                detail: "scenario with a required minimum is missing".into(),
            });
            continue;
        };
        let Some((_, val)) = s.qor.iter().find(|(k, _)| k == &m.metric) else {
            out.push(Violation {
                scenario: m.scenario.clone(),
                metric: m.metric.clone(),
                baseline: m.min,
                current: 0.0,
                detail: "QoR metric with a required minimum is missing".into(),
            });
            continue;
        };
        if *val < m.min {
            out.push(Violation {
                scenario: m.scenario.clone(),
                metric: m.metric.clone(),
                baseline: m.min,
                current: *val,
                detail: format!("below required minimum {}", m.min),
            });
        }
    }
    out
}

/// Exit status for a violation list: 0 clean, 1 gated.
pub fn exit_code(violations: &[Violation]) -> i32 {
    i32::from(!violations.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(scenarios: Vec<ScenarioResult>) -> BenchReport {
        BenchReport {
            commit: "test".into(),
            threads: 1,
            scenarios,
        }
    }

    fn scenario(name: &str, wall_ms: f64, rss: u64, qor: &[(&str, f64)]) -> ScenarioResult {
        ScenarioResult {
            name: name.into(),
            wall_ms,
            peak_rss_kb: rss,
            qor: qor.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let base = report(vec![scenario(
            "calibrate",
            120.0,
            80_000,
            &[("mse_after", 2.5e-3)],
        )]);
        assert!(compare(&base, &base, &Thresholds::default()).is_empty());
    }

    #[test]
    fn injected_2x_slowdown_fails_the_gate() {
        // The acceptance criterion: a 2x wall-time regression must trip
        // the default thresholds and produce a nonzero exit.
        let base = report(vec![scenario(
            "calibrate_scgrs",
            100.0,
            80_000,
            &[("mse_after", 2.5e-3)],
        )]);
        let mut slow = base.clone();
        slow.scenarios[0].wall_ms *= 2.0;
        let violations = compare(&base, &slow, &Thresholds::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "wall_ms");
        assert_eq!(exit_code(&violations), 1);
    }

    #[test]
    fn a_run_at_another_thread_count_fails_the_gate() {
        let base = report(vec![scenario("calibrate_cgnr", 20.0, 80_000, &[])]);
        let mut cur = base.clone();
        cur.threads = 2;
        let violations = compare(&base, &cur, &Thresholds::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "threads");
        assert_eq!((violations[0].baseline, violations[0].current), (1.0, 2.0));
        assert_eq!(exit_code(&violations), 1);
    }

    #[test]
    fn jitter_on_tiny_scenarios_is_absorbed_by_the_floor() {
        // 2 ms -> 4 ms is a 2x "slowdown" but pure noise at this scale;
        // the absolute floor keeps it green.
        let base = report(vec![scenario("query_mix", 2.0, 80_000, &[])]);
        let mut cur = base.clone();
        cur.scenarios[0].wall_ms = 4.0;
        assert!(compare(&base, &cur, &Thresholds::default()).is_empty());
    }

    #[test]
    fn qor_drift_and_missing_metric_fail() {
        let base = report(vec![scenario(
            "calibrate_scgrs",
            100.0,
            80_000,
            &[("mse_after", 2.0e-3), ("paths", 840.0)],
        )]);
        let cur = report(vec![scenario(
            "calibrate_scgrs",
            100.0,
            80_000,
            &[("mse_after", 2.1e-3)],
        )]);
        let violations = compare(&base, &cur, &Thresholds::default());
        let metrics: Vec<&str> = violations.iter().map(|v| v.metric.as_str()).collect();
        assert!(metrics.contains(&"mse_after"), "5% mse drift must fail");
        assert!(metrics.contains(&"paths"), "missing metric must fail");
    }

    #[test]
    fn missing_scenario_fails_but_new_scenario_passes() {
        let base = report(vec![scenario("a", 10.0, 1000, &[])]);
        let cur = report(vec![scenario("b", 10.0, 1000, &[])]);
        let violations = compare(&base, &cur, &Thresholds::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "scenario");
        // Reversed: current has extra coverage, nothing to flag.
        assert!(compare(
            &cur,
            &report(vec![
                scenario("b", 10.0, 1000, &[]),
                scenario("a", 10.0, 1000, &[]),
            ]),
            &Thresholds::default()
        )
        .is_empty());
    }

    #[test]
    fn wall_prefixed_qor_keys_escape_the_drift_gate() {
        // A 10x swing on `wall_speedup` is machine noise, not QoR drift;
        // the deterministic keys still gate.
        let base = report(vec![scenario(
            "warm_vs_cold",
            50.0,
            80_000,
            &[("wall_speedup", 4.0), ("iterations_warm", 12.0)],
        )]);
        let mut cur = base.clone();
        cur.scenarios[0].qor[0].1 = 0.4;
        assert!(compare(&base, &cur, &Thresholds::default()).is_empty());
        cur.scenarios[0].qor[1].1 = 40.0;
        let violations = compare(&base, &cur, &Thresholds::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "iterations_warm");
    }

    #[test]
    fn read_qps_prefixed_qor_keys_escape_the_drift_gate() {
        // Saturation throughputs are machine facts: a big swing between
        // runners must not trip the drift gate — the floor on the
        // scaling ratio is enforced via `--require-min` instead.
        let base = report(vec![scenario(
            "server_saturation",
            50.0,
            80_000,
            &[("read_qps_scaling", 2.0), ("clients", 4.0)],
        )]);
        let mut cur = base.clone();
        cur.scenarios[0].qor[0].1 = 9.0;
        assert!(compare(&base, &cur, &Thresholds::default()).is_empty());
        cur.scenarios[0].qor[1].1 = 8.0;
        let violations = compare(&base, &cur, &Thresholds::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "clients");
    }

    #[test]
    fn minimums_gate_the_current_report_alone() {
        let cur = report(vec![scenario(
            "warm_vs_cold",
            50.0,
            80_000,
            &[("wall_speedup", 2.5)],
        )]);
        let floor = |min| Minimum {
            scenario: "warm_vs_cold".into(),
            metric: "wall_speedup".into(),
            min,
        };
        assert!(check_minimums(&cur, &[floor(1.0)]).is_empty());
        let violations = check_minimums(&cur, &[floor(3.0)]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("below required minimum"));
        // Missing metric and missing scenario both gate.
        let missing_metric = check_minimums(
            &cur,
            &[Minimum {
                scenario: "warm_vs_cold".into(),
                metric: "nope".into(),
                min: 1.0,
            }],
        );
        assert_eq!(missing_metric.len(), 1);
        let missing_scenario = check_minimums(
            &cur,
            &[Minimum {
                scenario: "nope".into(),
                metric: "wall_speedup".into(),
                min: 1.0,
            }],
        );
        assert_eq!(missing_scenario.len(), 1);
    }

    #[test]
    fn minimum_specs_parse_and_reject() {
        let m = parse_minimum("warm_vs_cold:wall_speedup:1.0").unwrap();
        assert_eq!(m.scenario, "warm_vs_cold");
        assert_eq!(m.metric, "wall_speedup");
        assert_eq!(m.min, 1.0);
        assert!(parse_minimum("only_two:parts").is_err());
        assert!(parse_minimum("a:b:not_a_number").is_err());
        assert!(parse_minimum(":b:1.0").is_err());
    }

    #[test]
    fn rss_regression_fails_beyond_headroom() {
        let base = report(vec![scenario("a", 10.0, 100_000, &[])]);
        let mut cur = base.clone();
        cur.scenarios[0].peak_rss_kb = 400_000;
        let violations = compare(&base, &cur, &Thresholds::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "peak_rss_kb");
    }

    #[test]
    fn round_trip_parse_matches_render() {
        let base = report(vec![scenario(
            "calibrate_scgrs",
            12.5,
            4096,
            &[("mse_after", 1.5e-3)],
        )]);
        let text = crate::harness::render_report("abc", 1, &base.scenarios);
        let parsed = parse_report(&text).expect("round trip");
        assert_eq!(parsed.scenarios, base.scenarios);
        assert_eq!(parsed.commit, "abc");
        assert!(parse_report("{\"version\":99}").is_err());
        assert!(parse_report("not json").is_err());
    }
}
