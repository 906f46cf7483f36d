//! `calibrate_cold`: one cold mGBA fit per op (SCG+RS, default config),
//! repeated on one seeded D10-class engine at `auto_period`, as
//! `mgba-sta calibrate D10` runs it.

use crate::design;
use crate::layers::{timed, Layers, Metric};
use crate::Workload;
use mgba::{
    run_mgba, select_paths, solve_with_fallback, FallbackStage, FitProblem, MgbaConfig, PassRatio,
    SelectionScheme, Solver,
};
use netlist::DesignSpec;
use parallel::Parallelism;
use sta::{gba_path_timing_batch, pba_timing_batch, Sta};

/// What an op must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FitSignature {
    /// FNV-1a digest of the fitted weights' bit patterns.
    weights_digest: u64,
    /// Passing paths (Table 3 rule, mGBA against golden PBA).
    passing: usize,
    /// Fitted paths.
    total: usize,
}

impl FitSignature {
    fn new(weights: &[f64], pass: PassRatio) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for w in weights {
            for byte in w.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        Self {
            weights_digest: h,
            passing: pass.passing,
            total: pass.total,
        }
    }
}

/// The design class the fits run on.
const SPEC: DesignSpec = DesignSpec::D10;

/// The solver of the op.
const SOLVER: Solver = Solver::ScgRs;

/// Threads of the parallel-layer probe.
const PROBE_THREADS: usize = 2;

/// Designs the parallel-layer probe runs on per run: its 2-thread solve
/// costs about as much as the rest of a design's traced ops.
const PROBE_DESIGNS: usize = 8;

/// The cold-fit workload on one engine.
pub struct Calibrate {
    sta: Sta,
    config: MgbaConfig,
    /// The signature every op must reproduce.
    reference: FitSignature,
    /// Whether the parallel-layer probe may still run on this design.
    probe_pending: bool,
}

impl Calibrate {
    /// Generates the design, probes `auto_period`, builds the engine and
    /// runs the warm-up fit, whose signature every op must reproduce.
    pub fn setup(seed: u64, layers: &mut Layers) -> Result<Self, String> {
        let netlist = design::generate(SPEC, seed, layers);
        let period = layers
            .time("sta.probe_period_ms", || mgba::auto_period(&netlist))
            .map_err(|e| format!("auto_period: {e}"))?;
        let mut sta = design::build(netlist, period, layers)?;
        let config = MgbaConfig::default();
        let warm_up = run_mgba(&mut sta, &config, SOLVER);
        if warm_up.num_paths == 0 {
            return Err("auto_period selected no paths".into());
        }
        Ok(Self {
            sta,
            config,
            reference: FitSignature::new(&warm_up.weights, warm_up.pass_after),
            probe_pending: true,
        })
    }
}

/// An op's fit must come from the requested solver and reproduce the
/// reference bit for bit.
fn check(
    reference: FitSignature,
    sig: FitSignature,
    fallback: FallbackStage,
) -> Result<(), String> {
    if fallback != FallbackStage::Primary {
        return Err(format!("fit fell back to stage `{fallback}`"));
    }
    if sig != reference {
        return Err(format!(
            "fit {sig:?} differs from the reference {reference:?}"
        ));
    }
    Ok(())
}

impl Workload for Calibrate {
    fn op(&mut self) -> Result<(), String> {
        let r = run_mgba(&mut self.sta, &self.config, SOLVER);
        check(
            self.reference,
            FitSignature::new(&r.weights, r.pass_after),
            r.fallback,
        )
    }

    /// The stages `run_mgba` chains, called one by one in its order.
    fn traced_op(&mut self, layers: &mut Layers) -> Result<(), String> {
        let Self {
            sta,
            config,
            reference,
            probe_pending,
        } = self;
        let par = config.parallelism();
        layers.time("sta.clear_weights_ms", || sta.clear_weights());
        let selection = layers.time("core.select_ms", || {
            select_paths(
                sta,
                SelectionScheme::PerEndpoint {
                    k: config.paths_per_endpoint,
                    max_total: config.max_paths,
                },
                config.only_violating,
            )
        });
        let paths = selection.paths;
        layers.value("core.paths", paths.len() as f64, "count");
        let fit = layers.time("core.build_ms", || {
            FitProblem::build_par(sta, &paths, config.epsilon, config.penalty, par)
        });
        layers.value("core.nnz", fit.matrix().nnz() as f64, "count");
        let ((result, fallback), solve_ms) = timed(|| solve_with_fallback(SOLVER, &fit, config));
        layers.stage_ms("core.solve_ms", solve_ms);
        layers.value("core.iterations", result.iterations as f64, "count");
        layers.value("core.rows_touched", result.rows_touched as f64, "count");
        if std::mem::take(probe_pending) && layers.count("parallel.solve_speedup") < PROBE_DESIGNS {
            let speedup =
                layers.excluded(|| crate::host::unpinned(|| parallel_probe(&fit, config)))??;
            layers.value("parallel.solve_speedup", speedup, "ratio");
        }
        let num_cells = sta.netlist().num_cells();
        let (weights, fold_a) = timed(|| fit.to_cell_weights(&result.x, num_cells));
        let (golden, eval_a) = timed(|| {
            pba_timing_batch(sta, &paths, par)
                .iter()
                .map(|t| t.slack)
                .collect::<Vec<f64>>()
        });
        let ((), fold_b) = timed(|| sta.set_weights(&weights));
        let (after, eval_b) = timed(|| {
            gba_path_timing_batch(sta, &paths, par)
                .iter()
                .map(|t| t.slack)
                .collect::<Vec<f64>>()
        });
        layers.stage_ms("core.fold_back_ms", fold_a + fold_b);
        layers.stage_ms("sta.evaluate_ms", eval_a + eval_b);
        let pass = PassRatio::compute(&after, &golden);
        check(*reference, FitSignature::new(&weights, pass), fallback)
    }

    fn finish(self: Box<Self>) -> Result<Vec<Metric>, String> {
        let pass = self.reference.passing as f64 / self.reference.total as f64;
        Ok(vec![Metric::new("pass_ratio", pass, "ratio")])
    }
}

/// The parallel layer's figure: the op's fit problem solved with CGNR,
/// whose many small kernel calls make it the solver most exposed to the
/// layer's per-call cost, serially and at [`PROBE_THREADS`] threads.
/// Returns serial time ÷ threaded time; the two solutions must be
/// bit-identical (the layer's determinism contract).
fn parallel_probe(fit: &FitProblem, config: &MgbaConfig) -> Result<f64, String> {
    let solve = |threads: usize| {
        let problem = fit.clone().with_parallelism(Parallelism::new(threads));
        timed(|| solve_with_fallback(Solver::Cgnr, &problem, config))
    };
    let ((serial, _), serial_ms) = solve(1);
    let ((threaded, _), threaded_ms) = solve(PROBE_THREADS);
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    if bits(&serial.x) != bits(&threaded.x) {
        return Err(format!(
            "CGNR at {PROBE_THREADS} threads differs from the serial solve"
        ));
    }
    Ok(serial_ms / threaded_ms)
}
