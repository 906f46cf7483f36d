//! Cross-crate determinism guarantee of the parallel execution layer:
//! every thread count produces bit-identical results — batch PBA
//! retiming, problem assembly, solver kernels, and the full calibrate
//! flow all the way to the installed weights.
//!
//! This is the property that makes `--threads N` safe to flip in a
//! signoff context: parallelism is a pure speedup, never a numerics
//! change.

use mgba::{run_mgba, FitProblem, MgbaConfig, Solver};
use netlist::GeneratorConfig;
use parallel::Parallelism;
use sta::paths::select_critical_paths;
use sta::{gba_path_timing_batch, pba_timing_batch, DerateSet, Sdc, Sta};

/// A design tight enough to have real violations to fit against.
fn tight_engine(seed: u64) -> Sta {
    let n = GeneratorConfig::small(seed).generate();
    let mut sta = Sta::new(n, Sdc::with_period(10_000.0), DerateSet::standard()).unwrap();
    sta.set_period(10_000.0 - sta.wns() - 200.0);
    sta
}

#[test]
fn pba_batch_is_bit_identical_across_thread_counts() {
    let sta = tight_engine(2001);
    let paths = select_critical_paths(&sta, 10, 3000, false);
    assert!(paths.len() > 100, "need a real batch, got {}", paths.len());
    let serial = pba_timing_batch(&sta, &paths, Parallelism::serial());
    let serial_gba = gba_path_timing_batch(&sta, &paths, Parallelism::serial());
    for threads in [2, 3, 8] {
        let par = Parallelism::new(threads);
        let pba = pba_timing_batch(&sta, &paths, par);
        let gba = gba_path_timing_batch(&sta, &paths, par);
        for i in 0..paths.len() {
            assert_eq!(pba[i].slack.to_bits(), serial[i].slack.to_bits());
            assert_eq!(pba[i].arrival.to_bits(), serial[i].arrival.to_bits());
            assert_eq!(gba[i].slack.to_bits(), serial_gba[i].slack.to_bits());
        }
    }
}

#[test]
fn objective_and_gradient_are_bit_identical_across_thread_counts() {
    let sta = tight_engine(2002);
    let paths = select_critical_paths(&sta, 10, 3000, false);
    let cfg = MgbaConfig::default();
    let serial = FitProblem::build_par(
        &sta,
        &paths,
        cfg.epsilon,
        cfg.penalty,
        Parallelism::serial(),
    );
    let x: Vec<f64> = (0..serial.num_gates())
        .map(|j| -0.05 + 0.002 * (j % 17) as f64)
        .collect();
    let g0 = serial.gradient(&x);
    for threads in [2, 5] {
        let p = FitProblem::build_par(
            &sta,
            &paths,
            cfg.epsilon,
            cfg.penalty,
            Parallelism::new(threads),
        );
        assert_eq!(p.matrix(), serial.matrix());
        assert_eq!(p.objective(&x).to_bits(), serial.objective(&x).to_bits());
        assert_eq!(p.gradient(&x), g0);
        assert_eq!(p.model_slacks(&x), serial.model_slacks(&x));
    }
}

#[test]
fn calibrate_flow_weights_and_slacks_identical_for_any_thread_count() {
    // The acceptance check: `--threads 1` vs `--threads N` through the
    // whole run_mgba flow (selection, PBA labelling, fit, solve, apply)
    // must install the same weights and report the same slacks.
    let config1 = MgbaConfig::default().with_threads(1);
    let config_n = MgbaConfig::default().with_threads(4);

    for solver in [Solver::ScgRs, Solver::Cgnr] {
        let mut sta1 = tight_engine(2003);
        let mut sta_n = tight_engine(2003);
        let r1 = run_mgba(&mut sta1, &config1, solver);
        let rn = run_mgba(&mut sta_n, &config_n, solver);
        assert_eq!(r1.num_paths, rn.num_paths, "{solver}");
        assert!(r1.num_paths > 0, "{solver}: nothing fitted");
        assert_eq!(r1.weights, rn.weights, "{solver}: weights differ");
        assert_eq!(r1.mse_after.to_bits(), rn.mse_after.to_bits(), "{solver}");
        assert_eq!(r1.pass_after, rn.pass_after, "{solver}");
        // The engines carry identical corrected timing.
        assert_eq!(sta1.wns().to_bits(), sta_n.wns().to_bits(), "{solver}");
        assert_eq!(sta1.tns().to_bits(), sta_n.tns().to_bits(), "{solver}");
    }
}

#[test]
fn mgba_threads_env_is_honored_as_default() {
    // Parallelism::new(0) resolves through (in order): the process-wide
    // CLI override, the MGBA_THREADS environment variable, and the
    // machine width. We can't mutate the environment safely in a
    // multi-threaded test runner, so just pin the resolution invariants.
    let auto = Parallelism::new(0);
    assert!(auto.threads() >= 1);
    assert_eq!(Parallelism::new(1).threads(), 1);
    assert!(Parallelism::new(1).is_serial());
    assert_eq!(Parallelism::new(7).threads(), 7);
}
