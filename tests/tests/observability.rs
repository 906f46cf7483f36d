//! Observability integration: the span tree produced by a calibrate run
//! covers the whole pipeline, the metrics registry matches the fitted
//! problem's shape, solver telemetry records Algorithm 1's rounds — and
//! none of it changes a single output bit, enabled or not, serial or
//! parallel.

use mgba::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests in this binary: they all read and reset the
/// process-wide obs stores.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_test() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(false);
    obs::reset();
    guard
}

/// Small generated design timed at a period tight enough that ~15% of
/// the worst arrival depth violates (same recipe as the CLI's
/// auto-derived calibrate period).
fn engine(seed: u64) -> Sta {
    let netlist = GeneratorConfig::small(seed).generate();
    mgba::build_engine_at_fraction(netlist, 10_000.0, 0.15).expect("engine builds")
}

fn calibrate(seed: u64, solver: Solver) -> (MgbaReport, Vec<f64>) {
    let mut sta = engine(seed);
    let report = run_mgba(&mut sta, &MgbaConfig::default(), solver);
    let weights = report.weights.clone();
    (report, weights)
}

#[test]
fn span_tree_covers_the_whole_pipeline() {
    let _l = obs_test();
    obs::set_enabled(true);
    let (report, _) = calibrate(301, Solver::ScgRs);
    obs::set_enabled(false);
    assert!(report.num_paths > 0, "design must have violations to fit");

    let profile = obs::ProfileReport::capture();
    let mgba = profile.find_span("mgba").expect("root mgba span");
    assert_eq!(mgba.calls, 1);
    for stage in ["select", "build", "solve", "fold_back", "evaluate"] {
        assert!(
            mgba.child(stage).is_some(),
            "missing pipeline stage {stage}"
        );
    }
    let build = mgba.child("build").unwrap();
    for inner in ["assemble", "pba_batch", "gba_batch"] {
        assert!(build.child(inner).is_some(), "missing build stage {inner}");
    }
    let solve = mgba.child("solve").unwrap();
    let scg_rs = solve.child("scg_rs").expect("solver span under solve");
    assert!(
        scg_rs.child("scg").is_some(),
        "Algorithm 1 rounds run the inner SCG solver"
    );
    // Weights fold back via two set_weights/evaluate passes (golden PBA
    // before, corrected GBA after).
    assert_eq!(mgba.child("fold_back").unwrap().calls, 2);
    assert_eq!(mgba.child("evaluate").unwrap().calls, 2);
    // Wall-clock sanity: children nest inside the parent's time.
    let child_total: u64 = mgba.children.iter().map(|c| c.total_ns).sum();
    assert!(child_total <= mgba.total_ns);
}

#[test]
fn metrics_snapshot_matches_the_fitted_problem() {
    let _l = obs_test();
    obs::set_enabled(true);
    let (report, _) = calibrate(302, Solver::Cgnr);
    obs::set_enabled(false);

    let m = obs::ProfileReport::capture().metrics;
    assert_eq!(
        m.counter("mgba.paths_selected"),
        Some(report.num_paths as u64)
    );
    assert_eq!(m.counter("mgba.fit.rows"), Some(report.num_paths as u64));
    assert_eq!(m.counter("mgba.fit.gates"), Some(report.num_gates as u64));
    let nnz = m.counter("mgba.fit.nnz").expect("nnz counter");
    assert!(nnz >= report.num_paths as u64, "each row has entries");
    // Both timing views retime each selected path at least once (build +
    // evaluate passes).
    let pba = m.counter("sta.pba.paths_retimed").expect("pba counter");
    assert!(pba >= 2 * report.num_paths as u64);
    // Gauges mirror the report exactly — same f64, no rounding.
    assert_eq!(m.gauge("mgba.mse_before"), Some(report.mse_before));
    assert_eq!(m.gauge("mgba.mse_after"), Some(report.mse_after));
    assert_eq!(
        m.gauge("mgba.pass_ratio_after"),
        Some(report.pass_after.ratio())
    );
    // Engine construction runs (at least) the probe and real full update.
    assert!(m.counter("sta.update.full").unwrap_or(0) >= 1);
    // CGNR's per-iteration residual trace is captured.
    let profile = obs::ProfileReport::capture();
    let trace = profile
        .solves
        .iter()
        .find(|s| s.solver == "CGNR")
        .expect("CGNR trace");
    assert!(!trace.iterations.is_empty());
}

#[test]
fn solver_telemetry_records_sampling_rounds() {
    let _l = obs_test();
    obs::set_enabled(true);
    let (report, _) = calibrate(303, Solver::ScgRs);
    obs::set_enabled(false);

    let profile = obs::ProfileReport::capture();
    let outer = profile
        .solves
        .iter()
        .find(|s| s.solver == "SCG + RS")
        .expect("row-sampling trace");
    assert!(
        !outer.rounds.is_empty(),
        "Algorithm 1 ran at least one round"
    );
    assert_eq!(outer.converged, Some(report.converged));
    assert_eq!(outer.total_iterations, report.iterations as u64);
    let mut prev_ratio = 0.0;
    for round in &outer.rounds {
        assert!(
            round.ratio > prev_ratio,
            "sampling ratio doubles monotonically"
        );
        assert!(round.ratio <= 1.0);
        assert!(round.rows > 0);
        prev_ratio = round.ratio;
    }
    // The inner SCG runs are traced too, one per round.
    let inner: Vec<_> = profile
        .solves
        .iter()
        .filter(|s| s.solver == "SCG + w/o RS")
        .collect();
    assert_eq!(inner.len(), outer.rounds.len());
    assert!(inner.iter().any(|s| !s.iterations.is_empty()));
    // JSON export round-trips the same structure without panicking.
    let json = profile.to_json();
    assert!(json.contains("\"SCG + RS\""));
    assert!(json.starts_with("{\"version\":2,"));
}

#[test]
fn instrumentation_never_changes_results() {
    let _l = obs_test();
    // Bit-for-bit: every weight and both MSE scalars must match across
    // {off, profiling, profiling + trace exporter} × {1 thread,
    // 4 threads}. The traced runs also drive both export encoders so
    // "enabling an exporter" is the thing proven inert, not just the
    // collection flags.
    let mut outcomes = Vec::new();
    for threads in [1usize, 4] {
        parallel::set_global_threads(threads);
        for (instrumented, traced) in [(false, false), (true, false), (true, true)] {
            obs::reset();
            obs::set_enabled(instrumented);
            obs::set_trace_enabled(traced);
            let (report, weights) = calibrate(304, Solver::ScgRs);
            obs::set_enabled(false);
            obs::set_trace_enabled(false);
            if traced {
                assert!(
                    obs::trace::export_json().contains("\"mgba\""),
                    "trace exporter captured the run"
                );
                obs::prom::validate(&obs::prom::encode(&obs::metrics::snapshot()))
                    .expect("Prometheus encoding conforms");
            }
            let bits: Vec<u64> = weights.iter().map(|w| w.to_bits()).collect();
            outcomes.push((
                threads,
                (instrumented, traced),
                bits,
                report.mse_before.to_bits(),
                report.mse_after.to_bits(),
                report.iterations,
            ));
        }
    }
    parallel::set_global_threads(1);
    let (_, _, bits0, before0, after0, iters0) = outcomes[0].clone();
    for (threads, mode, bits, before, after, iters) in &outcomes[1..] {
        assert_eq!(
            (bits, before, after, iters),
            (&bits0, &before0, &after0, &iters0),
            "threads={threads} (profiling, trace)={mode:?} diverged"
        );
    }
}

/// Trace timeline reduced to its deterministic part: (phase, span name).
type EventSeq = Vec<(String, Option<String>)>;

#[test]
fn solver_traces_identical_across_thread_counts() {
    let _l = obs_test();
    // The solver telemetry is recorded on the calling thread while the
    // fit-matrix build and path retimes fan out over the worker pool:
    // every sample (iterations, rounds, objectives) and the span
    // timeline's event sequence must be identical for every pool width.
    let mut captured: Vec<(usize, Vec<obs::telemetry::SolveTrace>, EventSeq)> = Vec::new();
    for threads in [1usize, 4] {
        parallel::set_global_threads(threads);
        obs::reset();
        obs::set_enabled(true);
        obs::set_trace_enabled(true);
        let (report, _) = calibrate(305, Solver::ScgRs);
        obs::set_enabled(false);
        obs::set_trace_enabled(false);
        assert!(report.num_paths > 0);
        let solves = obs::ProfileReport::capture().solves;
        let timeline: EventSeq = obs::trace::snapshot()
            .iter()
            .map(|e| (format!("{:?}", e.phase), e.name.clone()))
            .collect();
        assert!(
            !timeline.is_empty(),
            "trace collected under {threads} threads"
        );
        captured.push((threads, solves, timeline));
    }
    parallel::set_global_threads(1);
    let (_, solves0, timeline0) = &captured[0];
    assert!(
        solves0.iter().any(|s| s.solver == "SCG + RS"),
        "telemetry recorded the outer solve"
    );
    for (threads, solves, timeline) in &captured[1..] {
        assert_eq!(
            solves, solves0,
            "solver telemetry diverged at {threads} threads"
        );
        assert_eq!(
            timeline, timeline0,
            "trace event sequence diverged at {threads} threads"
        );
    }
}
