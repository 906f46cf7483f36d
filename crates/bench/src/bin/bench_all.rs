//! The standing PR benchmark: runs the calibrate / solver / server
//! scenarios and writes the schema'd `BENCH_PR.json` consumed by
//! `bench_compare` (and the CI `bench-gate` job).
//!
//! ```text
//! bench_all [--out PATH]          # default BENCH_PR.json
//! ```
//!
//! Scenario set (all deterministic apart from wall time and RSS):
//!
//! - `calibrate_scgrs` / `calibrate_cgnr` / `calibrate_gd`: the full
//!   mGBA pipeline on the same seeded small design, one scenario per
//!   solver, with the accuracy dashboard's QoR metrics attached;
//! - `server_query_mix`: load + calibrate + a steady-state query mix
//!   through the in-process stream transport;
//! - `whatif_burst`: incremental what-if resizes against a calibrated
//!   session;
//! - `warm_vs_cold`: one committed resize, then a warm (dirty-rows +
//!   warm-started solve) recalibration timed against a cold full re-run.
//!   The per-leg timings ride along as `wall_`-prefixed QoR keys, which
//!   the comparator exempts from the drift gate; CI pins the speedup
//!   floor with `--require-min warm_vs_cold:wall_speedup:1.0`;
//! - `edif_import`: export the calibrate design to EDIF and re-import
//!   it (strict importer, collected-issues lint included) five times, so
//!   ingestion wall time sits in the regression gate;
//! - `server_saturation`: concurrent pipelined read clients over TCP
//!   against one session's writer lane. The throughput rides along as
//!   the `read_qps_lane` QoR key, drift-gate-exempt like `wall_` keys.

use bench::harness::{commit_sha, run_scenario, write_report, ScenarioResult};
use bench::saturation::{self, SaturationSpec};
use mgba::prelude::*;
use server::{serve_stream, ServerConfig};
use std::time::Instant;

/// Design shared by the calibrate scenarios: the paper's D1 is big
/// enough that the solvers separate on wall time, small enough for a
/// CI-friendly run.
const CALIBRATE_DESIGN: &str = "D1";

/// Design for the server scenarios (matches the latency snapshot bin).
const SERVER_DESIGN: &str = "small:5";

fn calibrate_scenario(name: &str, solver: Solver) -> ScenarioResult {
    run_scenario(name, || {
        let netlist = parse_design(CALIBRATE_DESIGN).expect("known design");
        let mut sta = build_engine_auto(netlist).expect("engine");
        let config = MgbaConfig::default();
        let (report, accuracy) = run_mgba_with_accuracy(&mut sta, &config, solver);
        vec![
            ("paths".into(), report.num_paths as f64),
            ("gates".into(), report.num_gates as f64),
            ("mse_before".into(), report.mse_before),
            ("mse_after".into(), report.mse_after),
            ("pass_ratio_after".into(), report.pass_after.ratio()),
            ("iterations".into(), report.iterations as f64),
            ("rows_touched".into(), report.rows_touched as f64),
            ("mean_abs_err_after".into(), accuracy.mean_abs_err_after),
            ("wns_mgba".into(), accuracy.wns.2),
            ("tns_mgba".into(), accuracy.tns.2),
            ("weight_sparsity_pct".into(), accuracy.sparsity_pct()),
        ]
    })
}

/// Runs `script` through the stream transport and counts response lines.
fn stream_responses(script: &str) -> f64 {
    let config = ServerConfig {
        queue_depth: script.lines().count() + 1,
        ..ServerConfig::default()
    };
    let out = serve_stream(&config, script.as_bytes(), Vec::<u8>::new()).expect("stream transport");
    let text = String::from_utf8(out).expect("utf8 responses");
    assert!(
        !text.contains("\"error\""),
        "benchmark script must not error: {text}"
    );
    text.lines().count() as f64
}

fn server_query_mix() -> ScenarioResult {
    run_scenario("server_query_mix", || {
        let mut script = format!("{{\"cmd\":\"load\",\"design\":\"{SERVER_DESIGN}\"}}\n");
        script.push_str("{\"cmd\":\"calibrate\",\"solver\":\"scgrs\"}\n");
        for _ in 0..100 {
            script.push_str("{\"cmd\":\"wns\"}\n");
            script.push_str("{\"cmd\":\"tns\"}\n");
            script.push_str("{\"cmd\":\"slack\",\"top\":10}\n");
            script.push_str("{\"cmd\":\"path\",\"pba\":true}\n");
        }
        vec![("responses".into(), stream_responses(&script))]
    })
}

fn whatif_burst() -> ScenarioResult {
    run_scenario("whatif_burst", || {
        let mut script = format!("{{\"cmd\":\"load\",\"design\":\"{SERVER_DESIGN}\"}}\n");
        script.push_str("{\"cmd\":\"calibrate\",\"solver\":\"scgrs\"}\n");
        for round in 0..150 {
            script.push_str(&format!(
                "{{\"cmd\":\"whatif_resize\",\"cell\":\"g_1_{}_0\",\"to\":\"up\"}}\n",
                round % 4
            ));
        }
        script.push_str("{\"cmd\":\"wns\"}\n");
        vec![("responses".into(), stream_responses(&script))]
    })
}

fn warm_vs_cold() -> ScenarioResult {
    run_scenario("warm_vs_cold", || {
        let netlist = parse_design(CALIBRATE_DESIGN).expect("known design");
        let mut sta = build_engine_auto(netlist).expect("engine");
        let config = MgbaConfig::default();
        let solver = Solver::ScgRs;
        let (_, calibration) = Calibration::fit(&mut sta, &config, solver);
        let mut calibration = calibration.expect("D1 has violating paths");

        // Commit one upsizing of a fitted combinational gate — the same
        // edit the server's `commit` applies before auto-recalibrating.
        // Walk the path back-to-front: a gate near the endpoint has a
        // small fanout cone, so the dirty-row set stays a strict subset
        // and the patch path (not just the warm solve) is exercised.
        let (victim, up) = calibration
            .paths()
            .iter()
            .flat_map(|p| p.cells.iter().rev())
            .find_map(|&c| {
                let cell = sta.netlist().cell(c);
                if cell.role == netlist::CellRole::Combinational {
                    sta.netlist()
                        .library()
                        .upsized(cell.lib_cell)
                        .map(|u| (c, u))
                } else {
                    None
                }
            })
            .expect("a resizable fitted gate");
        sta.resize_cell(victim, up)
            .expect("library accepts the upsize");
        calibration.note_edit(&sta);

        let t = Instant::now();
        let re = calibration.refit(&mut sta, &config, solver);
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;
        let (wns_warm, tns_warm) = (sta.wns(), sta.tns());

        // Cold leg on the same edited design: full path re-selection,
        // fresh problem assembly, solve from zero.
        let t = Instant::now();
        let (cold, _) = Calibration::fit(&mut sta, &config, solver);
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        let (wns_cold, tns_cold) = (sta.wns(), sta.tns());

        // The warm refit keeps the calibration-time path set while the
        // cold run re-selects; after one gate resize both must land on
        // the same corrected timing (±1%).
        assert!(
            (wns_warm - wns_cold).abs() <= wns_cold.abs() * 0.01 + 1.0,
            "warm wns {wns_warm} vs cold {wns_cold}"
        );
        assert!(
            (tns_warm - tns_cold).abs() <= tns_cold.abs() * 0.01 + 10.0,
            "warm tns {tns_warm} vs cold {tns_cold}"
        );

        vec![
            ("rows".into(), re.total_rows as f64),
            ("dirty_rows".into(), re.dirty_rows as f64),
            ("iterations_warm".into(), re.iterations as f64),
            ("iterations_cold".into(), cold.iterations as f64),
            ("wns_warm".into(), wns_warm),
            ("wns_cold".into(), wns_cold),
            ("tns_warm".into(), tns_warm),
            ("tns_cold".into(), tns_cold),
            ("wall_warm_ms".into(), warm_ms),
            ("wall_cold_ms".into(), cold_ms),
            ("wall_speedup".into(), cold_ms / warm_ms.max(1e-9)),
        ]
    })
}

fn edif_import() -> ScenarioResult {
    run_scenario("edif_import", || {
        // Ingestion wall time: export the calibrate design to EDIF, then
        // run the strict importer (which includes the full one-pass lint)
        // several times so the scenario measures parsing/elaboration, not
        // the one-off export.
        let netlist = parse_design(CALIBRATE_DESIGN).expect("known design");
        let text = ingest::write_edif(&netlist);
        let mut back = None;
        for _ in 0..5 {
            let (n, _sources) = ingest::import_edif(&text).expect("round trip imports");
            back = Some(n);
        }
        let back = back.expect("imported netlist");
        assert_eq!(back.num_cells(), netlist.num_cells(), "cell count survives");
        assert_eq!(back.num_nets(), netlist.num_nets(), "net count survives");
        let report = netlist::lint_netlist(&back);
        vec![
            ("edif_bytes".into(), text.len() as f64),
            ("cells".into(), back.num_cells() as f64),
            ("nets".into(), back.num_nets() as f64),
            ("lint_errors".into(), report.num_errors() as f64),
            ("lint_warnings".into(), report.num_warnings() as f64),
        ]
    })
}

fn server_saturation() -> ScenarioResult {
    run_scenario("server_saturation", || {
        let spec = SaturationSpec::default();
        let read_qps_lane = saturation::run(&spec);
        vec![
            ("clients".into(), spec.clients as f64),
            ("reads_per_client".into(), spec.reads_per_client as f64),
            ("read_qps_lane".into(), read_qps_lane),
        ]
    })
}

fn main() {
    let mut out_path = "BENCH_PR.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => {
                eprintln!("usage: bench_all [--out PATH] (got `{other}`)");
                std::process::exit(2);
            }
        }
    }

    let scenarios = vec![
        calibrate_scenario("calibrate_scgrs", Solver::ScgRs),
        calibrate_scenario("calibrate_cgnr", Solver::Cgnr),
        calibrate_scenario("calibrate_gd", Solver::Gd),
        server_query_mix(),
        whatif_burst(),
        warm_vs_cold(),
        edif_import(),
        server_saturation(),
    ];
    for s in &scenarios {
        println!(
            "{:<18} {:>9.2} ms  rss {:>8} kB  {} qor metrics",
            s.name,
            s.wall_ms,
            s.peak_rss_kb,
            s.qor.len()
        );
    }
    let threads = parallel::global().threads();
    write_report(
        std::path::Path::new(&out_path),
        &commit_sha(),
        threads,
        &scenarios,
    )
    .expect("write report");
    eprintln!("wrote {out_path}");
}
